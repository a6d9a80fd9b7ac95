#include "sim/simulator.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <vector>

#include "circuit/schedule.h"
#include "circuit/timing.h"
#include "sim/fuser.h"
#include "sim/statevector.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace caqr::sim {

namespace {

/// Precomputed idle-decoherence parameters preceding one instruction,
/// per operand qubit: T1 relaxation as an amplitude-damping trajectory
/// (gamma) plus pure dephasing (p_phaseflip from T_phi, where
/// 1/T_phi = 1/T2 - 1/(2*T1)).
struct IdleNoise
{
    int qubit = -1;
    double gamma = 0.0;        ///< amplitude-damping probability
    double p_phaseflip = 0.0;  ///< pure-dephasing Z probability
};

/// Derives per-instruction idle noise from an ASAP schedule.
std::vector<std::vector<IdleNoise>>
precompute_idle_noise(const circuit::Circuit& circuit,
                      const NoiseModel& noise)
{
    std::vector<std::vector<IdleNoise>> result(circuit.size());
    if (!noise.has_backend()) return result;

    arch::CalibratedDurations model(*noise.backend());
    circuit::Schedule schedule(circuit, model);

    for (std::size_t i = 0; i < circuit.size(); ++i) {
        const auto& instr = circuit.at(i);
        for (int q : instr.qubits) {
            const double gap = schedule.idle_gap_before(i, q);
            if (gap <= 0.0) continue;
            double t1_dt, t2_dt;
            if (!noise.coherence_dt(q, &t1_dt, &t2_dt)) continue;
            IdleNoise idle;
            idle.qubit = q;
            idle.gamma = 1.0 - std::exp(-gap / t1_dt);
            // Pure dephasing rate: 1/Tphi = 1/T2 - 1/(2*T1).
            const double inv_tphi =
                std::max(0.0, 1.0 / t2_dt - 0.5 / t1_dt);
            idle.p_phaseflip = (1.0 - std::exp(-gap * inv_tphi)) / 2.0;
            result[i].push_back(idle);
        }
    }
    return result;
}

void
inject_depolarizing(StateVector& sv, int q, util::Rng& rng)
{
    static const char paulis[3] = {'X', 'Y', 'Z'};
    sv.apply_pauli(paulis[rng.next_int(0, 2)], q);
}

/**
 * One op of the per-shot execution program, compiled once per
 * simulate() call: fused 1q matrices, noise probabilities resolved
 * from the raw/physical instruction ahead of the shot loop, and idle
 * noise remapped onto compacted wires. The shot loop then runs a flat
 * dispatch with no per-shot noise-model lookups or matrix rebuilds.
 */
struct ShotOp
{
    enum class Kind : std::uint8_t {
        k1q, k2q, kX, kCx, kUnitary, kMeasure, kReset
    };
    Kind kind = Kind::kUnitary;
    int qubit = -1;  ///< k1q/kMeasure/kReset target; kCx control; k2q wire 0
    int clbit = -1;  ///< kMeasure destination; kCx target; k2q wire 1
    int condition_bit = -1;   ///< classical control, or -1
    int condition_value = 0;
    double gate_error = 0.0;    ///< per-operand depolarizing probability
    double readout_error = 0.0; ///< kMeasure flip probability
    /// k1q: the 2x2 unitary (fused run or single gate) in the
    /// statevector kernel's native scalar layout {00r, 00i, 01r, ...}.
    double matrix[8] = {};
    /// k2q: index into ShotProgram::matrices4 (kept out-of-line so the
    /// op array the shot loop walks stays cache-dense).
    int matrix4 = -1;
    const circuit::Instruction* instr = nullptr;  ///< kUnitary
    std::vector<IdleNoise> idle;  ///< compacted-wire idle noise before op
};

/// The compiled shot program: the flat op stream plus the fused 4x4
/// matrices (kernel scalar layout, basis index (bit of wire 1 << 1) |
/// bit of wire 0). Only multi-gate clusters produce a 4x4, so no noise
/// draws are ever attached to one.
struct ShotProgram
{
    std::vector<ShotOp> ops;
    std::vector<std::array<double, 32>> matrices4;
};

void
pack_matrix(const std::complex<double> m[2][2], double out[8])
{
    out[0] = m[0][0].real();
    out[1] = m[0][0].imag();
    out[2] = m[0][1].real();
    out[3] = m[0][1].imag();
    out[4] = m[1][0].real();
    out[5] = m[1][0].imag();
    out[6] = m[1][1].real();
    out[7] = m[1][1].imag();
}

/// Compiles the instruction stream into ShotOps: fuses eligible 1q/2q
/// segments and precomputes every per-op noise probability.
ShotProgram
compile_program(const circuit::Circuit& circuit,
                const circuit::Circuit& raw_circuit,
                const std::vector<std::vector<IdleNoise>>& idle_noise,
                const std::vector<int>& new_of_old,
                const NoiseModel& noise, bool fuse_gates,
                std::size_t* gates_fused)
{
    // A gate may be folded into a neighbor only when nothing observable
    // sits between matrix applications: no classical condition, no
    // depolarizing channel, no idle-decoherence window.
    std::vector<bool> fusible(circuit.size(), false);
    std::complex<double> scratch[2][2];
    std::complex<double> scratch4[4][4];
    for (std::size_t i = 0; i < circuit.size(); ++i) {
        const auto& instr = circuit.at(i);
        const bool eligible =
            fuse_gates && circuit::is_unitary(instr.kind) &&
            !instr.has_condition() && idle_noise[i].empty() &&
            noise.gate_error(raw_circuit.at(i)) <= 0.0;
        fusible[i] =
            eligible &&
            ((instr.qubits.size() == 1 && gate_matrix_1q(instr, scratch)) ||
             (instr.qubits.size() == 2 &&
              gate_matrix_2q(instr, 0, 1, scratch4)));
    }
    const auto fused = GateFuser::fuse(circuit, fusible);
    *gates_fused = GateFuser::gates_eliminated(fused);

    ShotProgram program;
    program.ops.reserve(fused.size());
    for (const auto& fop : fused) {
        ShotOp op;
        // Multi-gate clusters become one matrix application. Singleton
        // clusters fall through to the passthrough dispatch below so a
        // lone X or CX keeps its swap-based fast path (its noise terms
        // all resolve to zero — that's what made it fusible).
        if (fop.kind == FusedOp::Kind::k1q && fop.sources.size() > 1) {
            op.kind = ShotOp::Kind::k1q;
            op.qubit = fop.q0;
            pack_matrix(fop.m1, op.matrix);
            program.ops.push_back(std::move(op));
            continue;
        }
        if (fop.kind == FusedOp::Kind::k2q && fop.sources.size() > 1) {
            op.kind = ShotOp::Kind::k2q;
            op.qubit = fop.q0;
            op.clbit = fop.q1;
            op.matrix4 = static_cast<int>(program.matrices4.size());
            std::array<double, 32>& m = program.matrices4.emplace_back();
            for (int r = 0; r < 4; ++r) {
                for (int c = 0; c < 4; ++c) {
                    m[(r * 4 + c) * 2] = fop.m2[r][c].real();
                    m[(r * 4 + c) * 2 + 1] = fop.m2[r][c].imag();
                }
            }
            program.ops.push_back(std::move(op));
            continue;
        }
        const std::size_t i = fop.kind == FusedOp::Kind::kPassthrough
                                  ? fop.instr_index
                                  : fop.sources.front();
        const auto& instr = circuit.at(i);
        const auto& raw_instr = raw_circuit.at(i);
        if (instr.kind == circuit::GateKind::kBarrier) continue;
        op.condition_bit = instr.has_condition() ? instr.condition_bit : -1;
        op.condition_value = instr.condition_value;
        for (const auto& idle : idle_noise[i]) {
            IdleNoise remapped = idle;
            remapped.qubit = new_of_old[idle.qubit];
            op.idle.push_back(remapped);
        }
        switch (instr.kind) {
          case circuit::GateKind::kMeasure:
            op.kind = ShotOp::Kind::kMeasure;
            op.qubit = instr.qubits[0];
            op.clbit = instr.clbit;
            op.readout_error = noise.readout_error(raw_instr.qubits[0]);
            break;
          case circuit::GateKind::kReset:
            op.kind = ShotOp::Kind::kReset;
            op.qubit = instr.qubits[0];
            break;
          default: {
            // Single-qubit passthroughs (conditioned, noisy, or inside
            // an idle window) still get their matrix resolved here so
            // the shot loop never rebuilds one.
            std::complex<double> m[2][2];
            if (instr.kind == circuit::GateKind::kX) {
                op.kind = ShotOp::Kind::kX;
                op.qubit = instr.qubits[0];
            } else if (instr.qubits.size() == 1 && gate_matrix_1q(instr, m)) {
                op.kind = ShotOp::Kind::k1q;
                op.qubit = instr.qubits[0];
                pack_matrix(m, op.matrix);
            } else if (instr.kind == circuit::GateKind::kCx) {
                op.kind = ShotOp::Kind::kCx;
                op.qubit = instr.qubits[0];
                op.clbit = instr.qubits[1];
            } else {
                op.kind = ShotOp::Kind::kUnitary;
                op.instr = &instr;
            }
            op.gate_error = noise.gate_error(raw_instr);
            break;
          }
        }
        program.ops.push_back(std::move(op));
    }
    return program;
}

/// Executes one shot against the compiled program, reusing the
/// caller's statevector and classical-bit buffers.
void
run_shot(const ShotProgram& program, StateVector& sv,
         std::vector<int>& clbits, util::Rng& rng)
{
    sv.set_zero_state();
    std::fill(clbits.begin(), clbits.end(), 0);
    for (const auto& op : program.ops) {
        for (const auto& idle : op.idle) {
            sv.apply_amplitude_damping(idle.qubit, idle.gamma, rng);
            if (idle.p_phaseflip > 0.0 && rng.next_bool(idle.p_phaseflip)) {
                sv.apply_pauli('Z', idle.qubit);
            }
        }
        if (op.condition_bit >= 0 &&
            clbits[op.condition_bit] != op.condition_value) {
            continue;
        }
        switch (op.kind) {
          case ShotOp::Kind::k1q:
            sv.apply_1q(op.qubit, op.matrix);
            if (op.gate_error > 0.0 && rng.next_bool(op.gate_error)) {
                inject_depolarizing(sv, op.qubit, rng);
            }
            break;
          case ShotOp::Kind::k2q:
            sv.apply_2q(op.qubit, op.clbit,
                        program.matrices4[op.matrix4].data());
            break;
          case ShotOp::Kind::kX:
            sv.apply_x(op.qubit);
            if (op.gate_error > 0.0 && rng.next_bool(op.gate_error)) {
                inject_depolarizing(sv, op.qubit, rng);
            }
            break;
          case ShotOp::Kind::kCx:
            sv.apply_cx(op.qubit, op.clbit);
            if (op.gate_error > 0.0) {
                if (rng.next_bool(op.gate_error)) {
                    inject_depolarizing(sv, op.qubit, rng);
                }
                if (rng.next_bool(op.gate_error)) {
                    inject_depolarizing(sv, op.clbit, rng);
                }
            }
            break;
          case ShotOp::Kind::kMeasure: {
            int outcome = sv.measure(op.qubit, rng);
            if (op.readout_error > 0.0 && rng.next_bool(op.readout_error)) {
                outcome ^= 1;
            }
            clbits[op.clbit] = outcome;
            break;
          }
          case ShotOp::Kind::kReset:
            sv.reset(op.qubit, rng);
            break;
          case ShotOp::Kind::kUnitary: {
            sv.apply(*op.instr);
            if (op.gate_error > 0.0) {
                for (int q : op.instr->qubits) {
                    if (rng.next_bool(op.gate_error)) {
                        inject_depolarizing(sv, q, rng);
                    }
                }
            }
            break;
          }
        }
    }
}

}  // namespace

Counts
simulate(const circuit::Circuit& raw_circuit, const SimOptions& options,
         const NoiseModel& noise)
{
    util::trace::Span span("sim.simulate");
    const auto wall_start = std::chrono::steady_clock::now();

    // Simulate in the active-qubit subspace: physical circuits carry
    // every backend wire, but idle wires stay |0> forever. Noise
    // lookups (calibration, idle decoherence) use the raw/physical
    // instruction; the statevector uses the compacted one.
    const auto idle_noise = precompute_idle_noise(raw_circuit, noise);
    std::vector<int> old_of_new;
    const circuit::Circuit circuit = raw_circuit.compacted(&old_of_new);
    std::vector<int> new_of_old(
        static_cast<std::size_t>(raw_circuit.num_qubits()), -1);
    for (std::size_t w = 0; w < old_of_new.size(); ++w) {
        new_of_old[old_of_new[w]] = static_cast<int>(w);
    }

    std::size_t gates_fused = 0;
    const ShotProgram program =
        compile_program(circuit, raw_circuit, idle_noise, new_of_old,
                        noise, options.fuse_gates, &gates_fused);

    const std::size_t num_clbits =
        static_cast<std::size_t>(circuit.num_clbits());
    // Every shot seeds its own RNG stream from (seed, shot index), so
    // the outcome of shot k never depends on which thread ran it or
    // how the shot range was chunked — histograms merge by commutative
    // addition and are bit-identical at any thread count.
    //
    // Registers up to kDenseKeyBits wide accumulate into a flat
    // 2^num_clbits array indexed by the packed classical bits (bit i =
    // clbit i) and convert to string keys once at the end; wider
    // registers fall back to per-shot string keys in a map.
    constexpr std::size_t kDenseKeyBits = 16;
    auto run_shots = [&](std::size_t lo, std::size_t hi, auto&& record) {
        StateVector sv(circuit.num_qubits());
        std::vector<int> clbits(num_clbits, 0);
        for (std::size_t shot = lo; shot < hi; ++shot) {
            util::Rng rng(options.seed, shot);
            run_shot(program, sv, clbits, rng);
            record(clbits);
        }
    };

    const std::size_t shots = options.shots;
    const int threads = static_cast<int>(std::min<std::size_t>(
        std::max<std::size_t>(shots, 1),
        static_cast<std::size_t>(
            util::ThreadPool::resolve_threads(options.num_threads))));
    const std::size_t chunks = std::min<std::size_t>(
        shots, static_cast<std::size_t>(threads) * 4);
    Counts counts;
    if (num_clbits <= kDenseKeyBits) {
        using Histogram = std::vector<std::uint64_t>;
        auto run_range = [&](std::size_t lo, std::size_t hi) {
            Histogram hist(std::size_t{1} << num_clbits, 0);
            run_shots(lo, hi, [&](const std::vector<int>& clbits) {
                std::size_t idx = 0;
                for (std::size_t i = 0; i < num_clbits; ++i) {
                    idx |= static_cast<std::size_t>(clbits[i] != 0) << i;
                }
                ++hist[idx];
            });
            return hist;
        };
        Histogram hist;
        if (threads <= 1) {
            hist = run_range(0, shots);
        } else {
            util::ThreadPool pool(threads - 1);  // caller participates
            auto partials = pool.map(chunks, [&](std::size_t chunk) {
                return run_range(shots * chunk / chunks,
                                 shots * (chunk + 1) / chunks);
            });
            hist.assign(std::size_t{1} << num_clbits, 0);
            for (const auto& partial : partials) {
                for (std::size_t i = 0; i < hist.size(); ++i) {
                    hist[i] += partial[i];
                }
            }
        }
        std::string key(num_clbits, '0');
        for (std::size_t idx = 0; idx < hist.size(); ++idx) {
            if (hist[idx] == 0) continue;
            for (std::size_t i = 0; i < num_clbits; ++i) {
                key[i] = (idx >> i) & 1 ? '1' : '0';
            }
            counts[key] = hist[idx];
        }
    } else {
        auto run_range = [&](std::size_t lo, std::size_t hi) {
            Counts local;
            std::string key(num_clbits, '0');
            run_shots(lo, hi, [&](const std::vector<int>& clbits) {
                for (std::size_t i = 0; i < num_clbits; ++i) {
                    key[i] = clbits[i] ? '1' : '0';
                }
                ++local[key];
            });
            return local;
        };
        if (threads <= 1) {
            counts = run_range(0, shots);
        } else {
            util::ThreadPool pool(threads - 1);  // caller participates
            auto partials = pool.map(chunks, [&](std::size_t chunk) {
                return run_range(shots * chunk / chunks,
                                 shots * (chunk + 1) / chunks);
            });
            for (auto& partial : partials) {
                for (auto& [bits, count] : partial) counts[bits] += count;
            }
        }
    }

    // One observation per simulate() call: the metrics registry keeps
    // the whole distribution, so a batch where only the final run used
    // to survive the last-write-wins gauge now reports p50/p90/p99.
    // Sub-resolution runs clamp to one steady-clock tick instead of
    // silently dropping the observation — exactly the fast runs the
    // vectorized kernels produce are the ones worth recording.
    constexpr double kTickMs =
        1000.0 * static_cast<double>(std::chrono::steady_clock::period::num) /
        static_cast<double>(std::chrono::steady_clock::period::den);
    const double wall_ms = std::max(
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - wall_start)
            .count(),
        kTickMs);
    const double shots_per_sec =
        static_cast<double>(options.shots) * 1000.0 / wall_ms;
    auto& metrics = util::metrics::global();
    metrics.observe("sim.shots_per_sec", shots_per_sec);
    metrics.add("sim.shots", static_cast<double>(options.shots));
    metrics.add("sim.gates_fused", static_cast<double>(gates_fused) *
                                       static_cast<double>(options.shots));
    return counts;
}

std::map<std::string, double>
exact_distribution(const circuit::Circuit& raw_circuit, double cutoff)
{
    const circuit::Circuit circuit = raw_circuit.compacted();
    StateVector sv(circuit.num_qubits());
    std::vector<int> qubit_to_clbit(
        static_cast<std::size_t>(circuit.num_qubits()), -1);
    std::vector<bool> measured(
        static_cast<std::size_t>(circuit.num_qubits()), false);

    for (const auto& instr : circuit.instructions()) {
        if (instr.kind == circuit::GateKind::kBarrier) continue;
        CAQR_CHECK(!instr.has_condition(),
                   "exact_distribution: conditioned gates unsupported");
        CAQR_CHECK(instr.kind != circuit::GateKind::kReset,
                   "exact_distribution: reset unsupported");
        for (int q : instr.qubits) {
            CAQR_CHECK(!measured[q],
                       "exact_distribution: measurement must be terminal");
        }
        if (instr.kind == circuit::GateKind::kMeasure) {
            measured[instr.qubits[0]] = true;
            qubit_to_clbit[instr.qubits[0]] = instr.clbit;
            continue;
        }
        sv.apply(instr);
    }

    std::map<std::string, double> distribution;
    const auto& amps = sv.amplitudes();
    for (std::size_t basis = 0; basis < amps.size(); ++basis) {
        const double prob = std::norm(amps[basis]);
        if (prob < cutoff) continue;
        std::string key(static_cast<std::size_t>(circuit.num_clbits()),
                        '0');
        for (int q = 0; q < circuit.num_qubits(); ++q) {
            const int bit = qubit_to_clbit[q];
            if (bit >= 0 && (basis >> q) & 1) {
                key[static_cast<std::size_t>(bit)] = '1';
            }
        }
        distribution[key] += prob;
    }
    return distribution;
}

double
success_rate(const Counts& counts, const std::string& expected)
{
    std::size_t total = 0;
    std::size_t hits = 0;
    for (const auto& [key, count] : counts) {
        total += count;
        if (key == expected) hits += count;
    }
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
}

}  // namespace caqr::sim
