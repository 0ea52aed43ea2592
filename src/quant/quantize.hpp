#ifndef DISTMCU_QUANT_QUANTIZE_HPP
#define DISTMCU_QUANT_QUANTIZE_HPP

#include <cstdint>
#include <span>
#include <vector>

namespace distmcu::quant {

/// Weight and activation width of the A8W8 path the paper ships.
inline constexpr int kInt8Bits = 8;  // lint-domain: allow

/// Symmetric per-tensor quantization parameters (zero point fixed at 0,
/// the Deeploy-style scheme the paper deploys with).
struct QuantParams {
  float scale = 1.0f;  // real = q * scale

  [[nodiscard]] static QuantParams from_absmax(float absmax, int bits);
};

/// Largest |x| over `data` (0 for an empty span).
[[nodiscard]] float absmax(std::span<const float> data);

/// Pick parameters covering the tensor's range at `bits` precision.
[[nodiscard]] QuantParams choose_params(std::span<const float> data, int bits);

/// Quantize to int8 / int16 with round-to-nearest and saturation.
[[nodiscard]] std::vector<std::int8_t> quantize_i8(std::span<const float> data,
                                                   const QuantParams& p);
/// The same into `out` (data.size() elements), allocating nothing.
void quantize_i8(std::span<const float> data, const QuantParams& p,
                 std::span<std::int8_t> out);
[[nodiscard]] std::vector<std::int16_t> quantize_i16(std::span<const float> data,
                                                     const QuantParams& p);

void dequantize(std::span<const std::int8_t> q, const QuantParams& p,
                std::span<float> out);
void dequantize(std::span<const std::int16_t> q, const QuantParams& p,
                std::span<float> out);

/// Round `data` in place to a symmetric `bits`-wide grid scaled to its
/// own absmax, keeping float storage: the values then carry exactly the
/// information of the packed layout. An all-zero span is left as is.
void fake_quantize(std::span<float> data, int bits);

/// Worst-case absolute reconstruction error of the scheme (half an LSB).
[[nodiscard]] float max_quant_error(const QuantParams& p);

}  // namespace distmcu::quant

#endif  // DISTMCU_QUANT_QUANTIZE_HPP
