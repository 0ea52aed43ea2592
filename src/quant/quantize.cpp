#include "quant/quantize.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.hpp"

namespace distmcu::quant {

QuantParams QuantParams::from_absmax(float absmax, int bits) {
  DISTMCU_CHECK(bits == 8 || bits == 16, "QuantParams: bits must be 8 or 16");
  const float qmax = static_cast<float>((1 << (bits - 1)) - 1);
  QuantParams p;
  p.scale = absmax > 0.0f ? absmax / qmax : 1.0f;
  return p;
}

float absmax(std::span<const float> data) {
  float m = 0.0f;
  for (const float v : data) m = std::max(m, std::fabs(v));
  return m;
}

QuantParams choose_params(std::span<const float> data, int bits) {
  return QuantParams::from_absmax(absmax(data), bits);
}

namespace {
template <typename Int>
Int saturate_round(float v, float scale) {
  const float scaled = v / scale;
  const auto lo = static_cast<float>(std::numeric_limits<Int>::min());
  const auto hi = static_cast<float>(std::numeric_limits<Int>::max());
  return static_cast<Int>(std::lrintf(std::clamp(scaled, lo, hi)));
}
}  // namespace

std::vector<std::int8_t> quantize_i8(std::span<const float> data, const QuantParams& p) {
  std::vector<std::int8_t> out(data.size());
  quantize_i8(data, p, out);
  return out;
}

void quantize_i8(std::span<const float> data, const QuantParams& p,
                 std::span<std::int8_t> out) {
  DISTMCU_CHECK(data.size() == out.size(), "quantize_i8: size mismatch");
  for (std::size_t i = 0; i < data.size(); ++i) {
    out[i] = saturate_round<std::int8_t>(data[i], p.scale);
  }
}

std::vector<std::int16_t> quantize_i16(std::span<const float> data,
                                       const QuantParams& p) {
  std::vector<std::int16_t> out(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    out[i] = saturate_round<std::int16_t>(data[i], p.scale);
  }
  return out;
}

void dequantize(std::span<const std::int8_t> q, const QuantParams& p,
                std::span<float> out) {
  DISTMCU_CHECK(q.size() == out.size(), "dequantize: size mismatch");
  for (std::size_t i = 0; i < q.size(); ++i) {
    out[i] = static_cast<float>(q[i]) * p.scale;
  }
}

void dequantize(std::span<const std::int16_t> q, const QuantParams& p,
                std::span<float> out) {
  DISTMCU_CHECK(q.size() == out.size(), "dequantize: size mismatch");
  for (std::size_t i = 0; i < q.size(); ++i) {
    out[i] = static_cast<float>(q[i]) * p.scale;
  }
}

void fake_quantize(std::span<float> data, int bits) {
  const float m = absmax(data);
  if (m <= 0.0f) return;
  const float qmax = static_cast<float>((1 << (bits - 1)) - 1);
  const float scale = m / qmax;
  for (float& x : data) {
    const float q = std::clamp(std::nearbyintf(x / scale), -qmax, qmax);
    x = q * scale;
  }
}

float max_quant_error(const QuantParams& p) { return 0.5f * p.scale; }

}  // namespace distmcu::quant
