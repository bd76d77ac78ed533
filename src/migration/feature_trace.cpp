#include "migration/feature_trace.hpp"

#include "util/error.hpp"

namespace wavm3::migration {

void FeatureTrace::add(const FeatureSample& sample) {
  WAVM3_REQUIRE(samples_.empty() || sample.time >= samples_.back().time,
                "feature samples must be time-ordered");
  samples_.push_back(sample);
}

}  // namespace wavm3::migration
