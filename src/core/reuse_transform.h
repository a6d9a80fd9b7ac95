/**
 * @file
 * Circuit rewriting for a committed reuse pair: splice the
 * measure + conditional-X reset of the source qubit, move the target
 * qubit's operations onto the source wire, and compact the freed wire
 * away. Classical bits are untouched, so outcome histograms of the
 * transformed circuit are directly comparable with the original's.
 */
#ifndef CAQR_CORE_REUSE_TRANSFORM_H
#define CAQR_CORE_REUSE_TRANSFORM_H

#include <vector>

#include "circuit/circuit.h"
#include "core/reuse_analysis.h"

namespace caqr::core {

/// Result of one reuse application.
struct TransformResult
{
    circuit::Circuit circuit;  ///< rewritten circuit, one wire fewer
    /// orig_of[new wire] = caller-provided identity of that wire (see
    /// apply_reuse's @p orig_of parameter).
    std::vector<int> orig_of;
};

/**
 * Applies reuse pair @p pair to @p input (must be valid per
 * is_valid_reuse_pair). @p orig_of carries wire identities across
 * chained applications: pass {} on the first call (identity), then the
 * previous result's vector.
 *
 * If the source wire's last operation is a measurement, the reset is a
 * single conditional X on its clbit (the fast idiom of paper Fig 2b);
 * otherwise a measurement into a fresh scratch clbit is inserted first.
 */
TransformResult apply_reuse(const circuit::Circuit& input, ReusePair pair,
                            std::vector<int> orig_of = {});

}  // namespace caqr::core

#endif  // CAQR_CORE_REUSE_TRANSFORM_H
