#include "transpile/router.h"

#include <algorithm>
#include <optional>

#include "transpile/sabre.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace caqr::transpile {

namespace {

using circuit::Circuit;
using circuit::GateKind;
using circuit::Instruction;

/// The baseline router's side of the SABRE loop: the initial layout
/// places every operand, the escape force-routes the oldest blocked
/// gate (lowest instruction index), and an incumbent's SWAP count
/// bounds the run.
struct RouterPolicy
{
    static constexpr bool kPlacesOnDemand = false;
    static constexpr bool kWindowStopsAtCap = true;

    int swap_bound;

    void on_execute(const Instruction&) {}
    void on_swap(int, int) {}
    int
    escape_gate(const std::vector<int>& blocked) const
    {
        return *std::min_element(blocked.begin(), blocked.end());
    }
    bool adds_noise() const { return false; }
    double noise() const { return 0.0; }
    bool over_budget(int swaps) const { return swaps > swap_bound; }
};

}  // namespace

GateGraph::GateGraph(const Circuit& circuit)
    : circuit_(&circuit), in_degree_(circuit.size(), 0),
      succ_start_(circuit.size() + 1, 0)
{
    const auto& instrs = circuit.instructions();
    const int n = static_cast<int>(instrs.size());
    const int num_qubits = circuit.num_qubits();
    // Wires 0..num_qubits-1 are the qubits, the rest the clbits.
    std::vector<int> last_on_wire(
        static_cast<std::size_t>(num_qubits + circuit.num_clbits()), -1);
    int last_barrier = -1;
    // Predecessors of every instruction, in program order of the
    // instructions: in_degree_[i] entries each.
    std::vector<int> preds;
    for (int i = 0; i < n; ++i) {
        const Instruction& instr = instrs[i];
        const std::size_t first = preds.size();
        if (instr.kind == GateKind::kBarrier) {
            for (int u = last_barrier + 1; u < i; ++u) preds.push_back(u);
            if (preds.size() == first && last_barrier >= 0) {
                preds.push_back(last_barrier);
            }
            last_barrier = i;
        } else {
            const auto depend_on_wire = [&](int wire) {
                const int u = last_on_wire[wire];
                // A wire's last instruction before the last barrier is
                // ordered through that barrier instead.
                if (u > last_barrier && u != i &&
                    std::find(preds.begin() + first, preds.end(), u) ==
                        preds.end()) {
                    preds.push_back(u);
                }
                last_on_wire[wire] = i;
            };
            for (int q : instr.qubits) depend_on_wire(q);
            if (instr.clbit >= 0) depend_on_wire(num_qubits + instr.clbit);
            if (instr.condition_bit >= 0) {
                depend_on_wire(num_qubits + instr.condition_bit);
            }
            if (preds.size() == first && last_barrier >= 0) {
                preds.push_back(last_barrier);
            }
        }
        in_degree_[i] = static_cast<int>(preds.size() - first);
        for (std::size_t k = first; k < preds.size(); ++k) {
            ++succ_start_[preds[k] + 1];
        }
    }
    // Transpose: walking the instructions in order appends each one to
    // its predecessors' rows, so every row comes out ascending.
    for (int u = 0; u < n; ++u) succ_start_[u + 1] += succ_start_[u];
    std::vector<int> fill(succ_start_.begin(), succ_start_.end() - 1);
    succ_.resize(preds.size());
    std::size_t k = 0;
    for (int i = 0; i < n; ++i) {
        for (int d = 0; d < in_degree_[i]; ++d, ++k) {
            succ_[fill[preds[k]]++] = i;
        }
    }
}

void
StallIndex::build(const Circuit& logical, const std::vector<int>& front,
                  const std::vector<int>& window)
{
    gates_.clear();
    for (const auto* nodes : {&front, &window}) {
        for (int node : *nodes) {
            const auto& instr = logical.at(static_cast<std::size_t>(node));
            gates_.push_back({instr.qubits[0], instr.qubits[1], 0});
        }
    }
    num_front_ = front.size();
    // Counting sort into CSR rows.
    qubit_start_.assign(static_cast<std::size_t>(logical.num_qubits()) + 1,
                        0);
    for (const auto& gate : gates_) {
        ++qubit_start_[gate.q0];
        ++qubit_start_[gate.q1];
    }
    for (std::size_t q = 1; q < qubit_start_.size(); ++q) {
        qubit_start_[q] += qubit_start_[q - 1];
    }
    qubit_gates_.resize(2 * gates_.size());
    for (int k = 0; k < static_cast<int>(gates_.size()); ++k) {
        qubit_gates_[--qubit_start_[gates_[k].q0]] = k;
        qubit_gates_[--qubit_start_[gates_[k].q1]] = k;
    }
}

std::pair<int, int>
StallIndex::measure(const arch::Backend& backend,
                    const std::vector<int>& phys_of)
{
    const int np = backend.num_qubits();
    int front = 0;
    int window = 0;
    for (std::size_t k = 0; k < gates_.size(); ++k) {
        auto& gate = gates_[k];
        gate.distance = arch::routing_distance(
            backend.distance_row(phys_of[gate.q0])[phys_of[gate.q1]], np);
        (k < num_front_ ? front : window) += gate.distance;
    }
    return {front, window};
}

std::pair<int, int>
StallIndex::delta(const arch::Backend& backend,
                  const std::vector<int>& phys_of, int la, int lb, int pa,
                  int pb) const
{
    const int np = backend.num_qubits();
    int front = 0;
    int window = 0;
    const auto move = [&](int l, int other, int to) {
        const int* row = backend.distance_row(to);
        for (int i = qubit_start_[l]; i < qubit_start_[l + 1]; ++i) {
            const int k = qubit_gates_[i];
            const auto& gate = gates_[k];
            const int partner = gate.q0 == l ? gate.q1 : gate.q0;
            if (partner == other) continue;
            const int change =
                arch::routing_distance(row[phys_of[partner]], np) -
                gate.distance;
            (static_cast<std::size_t>(k) < num_front_ ? front : window) +=
                change;
        }
    };
    if (la >= 0) move(la, lb, pb);
    if (lb >= 0) move(lb, la, pa);
    return {front, window};
}

double
combine_swap_score(double front_cost, double look_cost,
                   double decay_factor, double link_bias)
{
    return decay_factor * (front_cost + look_cost + link_bias);
}

util::StatusOr<RoutingResult>
route_or(const GateGraph& graph, const arch::Backend& backend,
         const Layout& initial, const RouterOptions& options,
         RouterScratch* scratch, int swap_bound, SabreStats* stats_out)
{
    const Circuit& logical = graph.circuit();
    if (!is_valid_layout(initial, logical, backend)) {
        return util::Status::invalid_argument("invalid initial layout");
    }

    util::trace::Span span("router.route");

    std::optional<RouterScratch> local;
    if (scratch == nullptr) scratch = &local.emplace();
    RouterScratch& s = *scratch;
    s.phys_of.assign(initial.begin(), initial.end());
    s.logical_of.assign(static_cast<std::size_t>(backend.num_qubits()), -1);
    for (int l = 0; l < logical.num_qubits(); ++l) {
        s.logical_of[initial[l]] = l;
    }

    Circuit output(backend.num_qubits(), logical.num_clbits());
    output.copy_params_from(logical);
    RouterPolicy policy{swap_bound};
    SabreLoop loop(graph, backend, options, s, output, policy);
    util::Status status = loop.run();
    const SabreStats& stats = loop.stats();
    if (stats_out != nullptr) *stats_out = stats;
    if (!status.ok()) return status;

    auto& metrics = util::metrics::global();
    metrics.add("router.swaps_added", stats.swaps_added);
    // Stall iterations = frontier passes that executed no gate and had
    // to fall through to SWAP selection.
    metrics.add("router.stall_iterations",
                static_cast<double>(stats.stall_iterations));
    metrics.add("router.stall_escapes",
                static_cast<double>(stats.stall_escapes));

    RoutingResult result;
    result.circuit = std::move(output);
    result.swaps_added = stats.swaps_added;
    result.final_layout.assign(s.phys_of.begin(), s.phys_of.end());
    return result;
}

bool
is_hardware_compliant(const Circuit& physical,
                      const arch::Backend& backend)
{
    if (physical.num_qubits() > backend.num_qubits()) return false;
    for (const auto& instr : physical.instructions()) {
        if (!circuit::is_two_qubit(instr.kind)) continue;
        if (!backend.are_adjacent(instr.qubits[0], instr.qubits[1])) {
            return false;
        }
    }
    return true;
}

}  // namespace caqr::transpile
