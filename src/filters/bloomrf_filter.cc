#include "filters/bloomrf_filter.h"

namespace bloomrf {

std::optional<BloomRFFilter> BloomRFFilter::Deserialize(
    std::string_view data) {
  std::optional<BloomRF> impl = BloomRF::Deserialize(data);
  if (!impl) return std::nullopt;
  return BloomRFFilter(std::move(*impl));
}

}  // namespace bloomrf
