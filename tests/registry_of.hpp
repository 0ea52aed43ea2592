#ifndef DISTMCU_TESTS_REGISTRY_OF_HPP
#define DISTMCU_TESTS_REGISTRY_OF_HPP

// One-deployment registry for single-model engine tests: a
// BatchedEngine over a single model is the engine over a registry with
// one entry, which under the static split owns the whole arena (quota
// and cap both total_kv_slots).

#include "runtime/inference_session.hpp"
#include "runtime/model_registry.hpp"

namespace distmcu::testing {

/// Registry holding `session` (which must outlive every engine built
/// from it) under its config name.
inline runtime::ModelRegistry registry_of(
    const runtime::InferenceSession& session, int prefill_chunk_tokens = 0) {
  runtime::ModelRegistry reg;
  (void)reg.add(session, session.config().name, prefill_chunk_tokens);
  return reg;
}

}  // namespace distmcu::testing

#endif  // DISTMCU_TESTS_REGISTRY_OF_HPP
