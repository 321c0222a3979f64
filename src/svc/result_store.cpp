#include "svc/result_store.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "obs/registry.hpp"
#include "resilience/crc32c.hpp"
#include "resilience/fault.hpp"
#include "resilience/retry.hpp"
#include "util/check.hpp"
#include "util/file.hpp"

namespace psdns::svc {

namespace fs = std::filesystem;
using resilience::FaultKind;

namespace {

constexpr char kMagic[8] = {'P', 'S', 'D', 'N', 'S', 'R', 'E', 'S'};
constexpr std::uint32_t kVersion = 1;

bool looks_like_hash(const std::string& stem) {
  if (stem.size() != 16) return false;
  for (const char c : stem) {
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
  }
  return true;
}

}  // namespace

ResultStore::ResultStore(Options options) : options_(std::move(options)) {
  PSDNS_REQUIRE(!options_.dir.empty(), "result store dir must be non-empty");
  PSDNS_REQUIRE(options_.keep >= 1, "result store keep must be >= 1");
  std::error_code ec;
  fs::create_directories(options_.dir, ec);
  PSDNS_REQUIRE(!ec, "cannot create result store dir " + options_.dir);

  // Index surviving entries, oldest write first, so results from earlier
  // service runs are the first to go once this run fills the store.
  std::vector<std::pair<fs::file_time_type, std::string>> found;
  for (const auto& entry : fs::directory_iterator(options_.dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const fs::path& p = entry.path();
    if (p.extension() != ".res" || !looks_like_hash(p.stem().string())) {
      continue;
    }
    found.emplace_back(entry.last_write_time(ec), p.stem().string());
  }
  std::sort(found.begin(), found.end());
  for (auto& [when, hash] : found) order_.push_back(std::move(hash));
  evict_excess();
}

std::string ResultStore::path_for(const std::string& hash) const {
  return (fs::path(options_.dir) / (hash + ".res")).string();
}

bool ResultStore::read_entry(const std::string& hash, std::string* payload) {
  std::ifstream in(path_for(hash), std::ios::binary);
  if (!in) return false;
  char magic[8];
  std::uint32_t version = 0;
  std::uint64_t bytes = 0;
  std::uint32_t crc = 0;
  in.read(magic, sizeof(magic));
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  in.read(reinterpret_cast<char*>(&bytes), sizeof(bytes));
  in.read(reinterpret_cast<char*>(&crc), sizeof(crc));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0 ||
      version != kVersion || bytes > (64ULL << 20)) {
    return false;
  }
  std::string body(static_cast<std::size_t>(bytes), '\0');
  in.read(body.data(), static_cast<std::streamsize>(bytes));
  if (!in || resilience::crc32c(body.data(), body.size()) != crc) {
    return false;
  }
  *payload = std::move(body);
  return true;
}

std::optional<std::string> ResultStore::lookup(const std::string& hash) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = std::find(order_.begin(), order_.end(), hash);
  if (it == order_.end()) {
    ++misses_;
    obs::registry().counter_add("svc.cache.misses");
    return std::nullopt;
  }
  std::string payload;
  if (!read_entry(hash, &payload)) {
    // Truncated or CRC-mismatching entry: drop it and report a miss so the
    // job re-runs instead of serving damaged bytes.
    order_.erase(it);
    std::error_code ec;
    fs::remove(path_for(hash), ec);
    ++misses_;
    obs::registry().counter_add("svc.cache.misses");
    obs::registry().counter_add("svc.cache.corrupt");
    return std::nullopt;
  }
  touch(hash);
  ++hits_;
  obs::registry().counter_add("svc.cache.hits");
  return payload;
}

void ResultStore::insert(const std::string& hash,
                         const std::string& result_json) {
  PSDNS_REQUIRE(looks_like_hash(hash),
                "result store hash must be 16 lowercase hex digits");
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::string path = path_for(hash);
  const std::uint64_t bytes = result_json.size();
  const std::uint32_t crc =
      resilience::crc32c(result_json.data(), result_json.size());
  resilience::with_retry(resilience::RetryPolicy{}, "result write " + path,
                         [&] {
    // One fault poll per attempt. bit_flip keeps the clean payload's CRC:
    // silent corruption that the next lookup catches.
    const auto fault = resilience::poll(resilience::site::result_write);
    if (fault == FaultKind::Throw) {
      throw resilience::InjectedFault(resilience::site::result_write, *fault);
    }
    std::string payload = result_json;
    if (fault == FaultKind::BitFlip && !payload.empty()) {
      payload[payload.size() / 2] ^= 0x01;
    }
    if (fault == FaultKind::ShortWrite) payload.resize(payload.size() / 2);
    util::AtomicFile file(path);
    file.write(kMagic, sizeof(kMagic));
    file.write(&kVersion, sizeof(kVersion));
    file.write(&bytes, sizeof(bytes));
    file.write(&crc, sizeof(crc));
    file.write(payload);
    if (fault == FaultKind::ShortWrite) {
      util::raise("injected short write to " + file.tmp_path());
    }
    file.commit();
  });
  touch(hash);
  evict_excess();
}

std::optional<std::string> ResultStore::read(const std::string& hash) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = std::find(order_.begin(), order_.end(), hash);
  if (it == order_.end()) return std::nullopt;
  std::string payload;
  if (!read_entry(hash, &payload)) {
    order_.erase(it);
    std::error_code ec;
    fs::remove(path_for(hash), ec);
    return std::nullopt;
  }
  return payload;
}

bool ResultStore::contains(const std::string& hash) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return std::find(order_.begin(), order_.end(), hash) != order_.end();
}

void ResultStore::touch(const std::string& hash) {
  const auto it = std::find(order_.begin(), order_.end(), hash);
  if (it != order_.end()) order_.erase(it);
  order_.push_back(hash);
}

void ResultStore::evict_excess() {
  while (order_.size() > static_cast<std::size_t>(options_.keep)) {
    const std::string stale = order_.front();
    order_.erase(order_.begin());
    std::error_code ec;
    fs::remove(path_for(stale), ec);
    ++evictions_;
    obs::registry().counter_add("svc.cache.evictions");
  }
}

std::int64_t ResultStore::hits() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::int64_t ResultStore::misses() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

std::int64_t ResultStore::evictions() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return evictions_;
}

std::size_t ResultStore::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return order_.size();
}

}  // namespace psdns::svc
