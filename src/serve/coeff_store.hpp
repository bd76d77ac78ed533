// RCU-style holder for the model behind the prediction service.
//
// Readers call snapshot() — a brief pointer copy under a light mutex —
// and then predict lock-free against an immutable Wavm3Model for as
// long as they like. Writers build a *new* model and publish it
// atomically with swap(); in-flight predictions keep their old
// snapshot alive through shared ownership and are never blocked or
// torn. Every publish bumps a version counter that the service folds
// into its cache keys, so results computed against superseded
// coefficients can never be served after a swap.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>

#include "core/wavm3_model.hpp"

namespace wavm3::serve {

class CoefficientStore {
 public:
  /// Starts from a copy of `model` (version 1). The model must be
  /// fitted — an unfitted model cannot answer queries.
  explicit CoefficientStore(const core::Wavm3Model& model);
  explicit CoefficientStore(std::shared_ptr<const core::Wavm3Model> model);

  /// The current immutable model + its version. Cheap; safe from any
  /// thread; the returned model never changes under the caller.
  struct Snapshot {
    std::shared_ptr<const core::Wavm3Model> model;
    std::uint64_t version = 0;
  };
  Snapshot snapshot() const;

  /// Publishes `model` as the new current snapshot; never waits for
  /// readers. Returns the new version.
  std::uint64_t swap(std::shared_ptr<const core::Wavm3Model> model);

  std::uint64_t version() const { return version_.load(std::memory_order_acquire); }

 private:
  mutable std::mutex mutex_;  ///< guards only the pointer copy, never predictions
  std::shared_ptr<const core::Wavm3Model> model_;
  std::atomic<std::uint64_t> version_{1};
};

}  // namespace wavm3::serve
