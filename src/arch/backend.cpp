#include "arch/backend.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "arch/heavy_hex.h"
#include "circuit/schedule.h"
#include "util/logging.h"

namespace caqr::arch {

Backend::Backend(std::string name, graph::UndirectedGraph topology,
                 Calibration calibration)
    : name_(std::move(name)),
      topology_(std::move(topology)),
      calibration_(std::move(calibration)),
      distances_(topology_.all_pairs_distances())
{
    const auto& edges = topology_.edges();
    CAQR_CHECK(calibration_.qubits.size() ==
                       static_cast<std::size_t>(topology_.num_nodes()) &&
                   calibration_.links.size() == edges.size(),
               "calibration does not cover the topology");
    const int n = num_qubits();

    // Counting sort of both endpoints of every edge into CSR rows.
    link_start_.assign(static_cast<std::size_t>(n) + 1, 0);
    for (const auto& [a, b] : edges) {
        ++link_start_[a];
        ++link_start_[b];
    }
    for (std::size_t q = 1; q < link_start_.size(); ++q) {
        link_start_[q] += link_start_[q - 1];
    }
    links_.resize(2 * edges.size());
    for (int id = 0; id < static_cast<int>(edges.size()); ++id) {
        const auto [a, b] = edges[static_cast<std::size_t>(id)];
        links_[--link_start_[a]] = {b, id};
        links_[--link_start_[b]] = {a, id};
    }

    total_distance_.assign(static_cast<std::size_t>(n), 0);
    best_cx_error_.assign(static_cast<std::size_t>(n), 1.0);
    for (int q = 0; q < n; ++q) {
        for (int d : distances_[static_cast<std::size_t>(q)]) {
            total_distance_[q] += d < 0 ? n : d;
        }
        for (const Link& link : links(q)) {
            best_cx_error_[q] =
                std::min(best_cx_error_[q],
                         calibration_.links[link.id].cx_error);
        }
        const double central =
            topology_.degree(q) -
            static_cast<double>(total_distance_[q]) / (n * n);
        seed_score_[0].push_back(central);
        seed_score_[1].push_back(central -
                                 calibration_.qubits[q].readout_error -
                                 best_cx_error_[q]);
    }
}

Backend
Backend::fake_mumbai()
{
    auto topology = mumbai_coupling();
    auto calibration = Calibration::synthesize(topology, /*seed=*/27);
    return Backend("FakeMumbai", std::move(topology),
                   std::move(calibration));
}

Backend
Backend::scaled_heavy_hex(int min_qubits, unsigned seed)
{
    auto topology = arch::scaled_heavy_hex(min_qubits);
    auto calibration = Calibration::synthesize(topology, seed);
    // Named before the move: argument evaluation order is unspecified.
    std::string name = "HeavyHex" + std::to_string(topology.num_nodes());
    return Backend(std::move(name), std::move(topology),
                   std::move(calibration));
}

namespace {

/// CX error assumed for a two-qubit gate on a pair that shares no link;
/// the ESP estimate and the backend noise model share it.
constexpr double kUncalibratedCxError = 0.02;

}  // namespace

double
Backend::cx_error(int a, int b) const
{
    const Link* link = find_link(a, b);
    return link != nullptr ? calibration_.links[link->id].cx_error
                           : kUncalibratedCxError;
}

double
Backend::cx_duration_dt(int a, int b) const
{
    const Link* link = find_link(a, b);
    return link != nullptr ? calibration_.links[link->id].cx_duration_dt
                           : circuit::LogicalDurations::kTwoQubitGate;
}

double
CalibratedDurations::duration(const circuit::Instruction& instr) const
{
    using circuit::GateKind;
    using circuit::LogicalDurations;

    switch (instr.kind) {
      case GateKind::kBarrier:
        return 0.0;
      case GateKind::kMeasure:
        return LogicalDurations::kMeasure;
      case GateKind::kReset:
        return LogicalDurations::kBuiltinReset;
      default:
        break;
    }
    // Conditioned gates pay feed-forward latency on top of the gate
    // itself; kConditionedGate bakes in a one-qubit gate (Fig 2b), so
    // the latency part is the difference. A conditioned two-qubit gate
    // must cost at least the (calibrated) two-qubit gate time.
    const double feedforward =
        instr.has_condition() ? LogicalDurations::kConditionedGate -
                                    LogicalDurations::kOneQubitGate
                              : 0.0;
    if (circuit::is_two_qubit(instr.kind)) {
        const double cx =
            backend_->cx_duration_dt(instr.qubits[0], instr.qubits[1]);
        return feedforward +
               (instr.kind == GateKind::kSwap ? 3 * cx : cx);
    }
    if (instr.kind == GateKind::kCcx) {
        return feedforward + 6 * LogicalDurations::kTwoQubitGate;
    }
    return feedforward + LogicalDurations::kOneQubitGate;
}

namespace {

/// ESP of @p circuit from @p schedule, its schedule under
/// `CalibratedDurations(backend)`.
double
esp_from_schedule(const circuit::Circuit& circuit, const Backend& backend,
                  const circuit::Schedule& schedule)
{
    using circuit::GateKind;
    const Calibration& cal = backend.calibration();

    double esp = 1.0;
    for (const auto& instr : circuit.instructions()) {
        switch (instr.kind) {
          case GateKind::kBarrier:
            break;
          case GateKind::kMeasure:
          case GateKind::kReset:
            esp *= 1.0 - cal.qubit(instr.qubits[0]).readout_error;
            break;
          default:
            if (circuit::is_two_qubit(instr.kind)) {
                const double err =
                    backend.cx_error(instr.qubits[0], instr.qubits[1]);
                const int copies =
                    instr.kind == GateKind::kSwap ? 3 : 1;
                for (int i = 0; i < copies; ++i) esp *= 1.0 - err;
            } else {
                esp *= 1.0 - cal.qubit(instr.qubits[0]).sx_error;
            }
            break;
        }
    }

    // Idle decoherence from the ASAP schedule.
    for (int q = 0; q < circuit.num_qubits(); ++q) {
        const auto& act = schedule.activity(q);
        if (!act.touched) continue;
        const double idle_seconds = act.idle() * circuit::kSecondsPerDt;
        const double t1_seconds = cal.qubit(q).t1_us * 1e-6;
        esp *= std::exp(-idle_seconds / t1_seconds);
    }
    return esp;
}

}  // namespace

double
estimated_success_probability(const circuit::Circuit& circuit,
                              const Backend& backend)
{
    const CalibratedDurations model(backend);
    return esp_from_schedule(circuit, backend,
                             circuit::Schedule(circuit, model));
}

MappedScore
score_mapped(const circuit::Circuit& circuit, const Backend& backend)
{
    const CalibratedDurations model(backend);
    const circuit::Schedule schedule(circuit, model);
    return {circuit::depth(circuit), schedule.makespan(),
            esp_from_schedule(circuit, backend, schedule)};
}

}  // namespace caqr::arch
