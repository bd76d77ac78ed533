#include "serve/coeff_store.hpp"

#include <utility>

#include "util/error.hpp"

namespace wavm3::serve {

CoefficientStore::CoefficientStore(const core::Wavm3Model& model)
    : CoefficientStore(std::make_shared<const core::Wavm3Model>(model)) {}

CoefficientStore::CoefficientStore(std::shared_ptr<const core::Wavm3Model> model) {
  WAVM3_REQUIRE(model != nullptr, "coefficient store needs a model");
  WAVM3_REQUIRE(model->is_fitted(), "coefficient store needs a fitted model");
  model_ = std::move(model);
}

CoefficientStore::Snapshot CoefficientStore::snapshot() const {
  Snapshot snap;
  {
    // Version is read under the same lock that guards the pointer so a
    // concurrent swap can never pair an old model with a new version
    // (which would let a stale result be cached under the new key).
    std::lock_guard<std::mutex> lock(mutex_);
    snap.model = model_;
    snap.version = version_.load(std::memory_order_acquire);
  }
  return snap;
}

std::uint64_t CoefficientStore::swap(std::shared_ptr<const core::Wavm3Model> model) {
  WAVM3_REQUIRE(model != nullptr && model->is_fitted(),
                "cannot publish an empty or unfitted model");
  std::shared_ptr<const core::Wavm3Model> retired;
  std::uint64_t v = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    retired = std::move(model_);
    model_ = std::move(model);
    v = version_.fetch_add(1, std::memory_order_acq_rel) + 1;
  }
  // `retired` releases outside the lock; in-flight readers holding it
  // keep the old coefficients alive until they finish.
  return v;
}

}  // namespace wavm3::serve
