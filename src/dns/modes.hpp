#pragma once
// The mode/point views moved to transpose/views.hpp so the transpose layer
// can describe its own layouts (transpose::DistFft3d backends publish a
// ModeView and a PhysView) without depending on dns. This header keeps the
// historical dns-namespace spellings alive for the spectral operators and
// existing callers.

#include "transpose/views.hpp"

namespace psdns::dns {

using transpose::ModeView;
using transpose::PhysView;
using transpose::SpectralBand;
using transpose::for_each_band_block;
using transpose::for_each_band_mode;
using transpose::for_each_mode;
using transpose::for_each_point;
using transpose::mode_weight;
using transpose::wrap_wavenumber;

}  // namespace psdns::dns
