#include "core/qs_caqr.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <utility>

#include "circuit/timing.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace caqr::core {

namespace {

using circuit::GateKind;
using circuit::Instruction;

/**
 * The program order of one QS-CaQR search over a fixed node pool
 * (paper §3.2.1). Nodes 0..G-1 are the input's instructions; each
 * commit appends its reset nodes. Operands keep their original qubit
 * ids, and `wire_of(q)` names the wire qubit q runs on by that wire's
 * head, the first original qubit on it, so live wires keep their
 * relative order, as wire compaction does. StepTables numbers wires
 * 0..num_qubits-1 by head and gives clbit c wire num_qubits + c.
 */
class ReuseProgram
{
  public:
    /// What the last commit moved, for StepTables::update. Before the
    /// first commit, the whole order.
    struct Splice
    {
        /// order()[split, end): the reset nodes, then the splice's
        /// descendants. Their forward values changed.
        std::size_t split = 0;
        /// order()[0, resume): the splice's non-descendants, then the
        /// reset nodes. Their tails changed.
        std::size_t resume = 0;
        /// The head the commit merged away, or -1.
        int target = -1;
    };

    explicit ReuseProgram(const circuit::Circuit& input)
        : input_(&input),
          order_(input.size()),
          wire_of_(static_cast<std::size_t>(input.num_qubits())),
          num_clbits_(input.num_clbits())
    {
        std::iota(order_.begin(), order_.end(), 0);
        std::iota(wire_of_.begin(), wire_of_.end(), 0);
        // At most num_qubits - 1 commits, each appending at most two
        // nodes and one scratch clbit: size every buffer once.
        const auto qubits = static_cast<std::size_t>(num_qubits());
        appended_.reserve(2 * qubits);
        order_.reserve(node_capacity());
        before_.reserve(node_capacity());
        after_.reserve(node_capacity());
        last_before_.assign(wire_capacity(), -1);
        first_after_.assign(wire_capacity(), -1);
        splice_.resume = order_.size();
    }

    int num_qubits() const { return input_->num_qubits(); }
    int num_wires() const { return num_qubits() + num_clbits_; }
    std::size_t num_nodes() const { return input_->size() + appended_.size(); }
    std::size_t
    node_capacity() const
    {
        return input_->size() + 2 * static_cast<std::size_t>(num_qubits());
    }
    std::size_t
    wire_capacity() const
    {
        return static_cast<std::size_t>(2 * num_qubits() +
                                        input_->num_clbits());
    }
    const std::vector<int>& order() const { return order_; }
    int wire_of(int q) const { return wire_of_[static_cast<std::size_t>(q)]; }
    const Splice& last_splice() const { return splice_; }
    /// Last node on wire @p w before last_splice().split, or -1.
    int
    last_before(int w) const
    {
        return last_before_[static_cast<std::size_t>(w)];
    }
    /// First node on wire @p w from last_splice().resume on, or -1.
    int
    first_after(int w) const
    {
        return first_after_[static_cast<std::size_t>(w)];
    }

    const Instruction&
    node(int id) const
    {
        const auto index = static_cast<std::size_t>(id);
        return index < input_->size() ? input_->at(index)
                                      : appended_[index - input_->size()];
    }

    /// Calls @p fn on every wire of non-barrier @p instr: its qubits'
    /// wires, then its clbit and condition bit.
    template <typename Fn>
    void
    for_each_wire(const Instruction& instr, Fn&& fn) const
    {
        for (int q : instr.qubits) fn(wire_of(q));
        if (instr.clbit >= 0) fn(num_qubits() + instr.clbit);
        if (instr.condition_bit >= 0) {
            fn(num_qubits() + instr.condition_bit);
        }
    }

    void commit(ReusePair pair);
    circuit::Circuit build() const;

  private:
    int
    append(Instruction instr)
    {
        appended_.push_back(std::move(instr));
        return static_cast<int>(input_->size() + appended_.size()) - 1;
    }

    const circuit::Circuit* input_;
    std::vector<Instruction> appended_;
    std::vector<int> order_;
    std::vector<int> wire_of_;
    int num_clbits_;
    Splice splice_;
    std::vector<int> last_before_;
    std::vector<int> first_after_;
    std::vector<int> before_;  ///< commit's scratch partition
    std::vector<int> after_;
};

/**
 * Commits @p pair, given by wire heads: splices the source wire's reset
 * between its operations and the target wire's, then moves the target
 * wire's operations onto the source wire. The new order is the one a
 * smallest-index-first topological sort of the spliced DAG emits: the
 * splice's non-descendants in current order, the reset (a measure
 * unless the source wire already ends in one, then an x_if), then its
 * descendants, everything the target wire reaches, in current order.
 * A barrier joins every wire, as in `Schedule`. A wire is tainted, and
 * every later node on it a descendant, once its first descendant is
 * found; the first descendant of all is on the target wire.
 */
void
ReuseProgram::commit(ReusePair pair)
{
    const int source = pair.source;
    const int target = pair.target;
    CAQR_CHECK(source != target && wire_of(source) == source &&
                   wire_of(target) == target,
               "commit needs two live wire heads");
    std::fill(last_before_.begin(), last_before_.end(), -1);
    std::fill(first_after_.begin(), first_after_.end(), -1);
    const auto taint = [this](int w, int id) {
        int& first = first_after_[static_cast<std::size_t>(w)];
        if (first < 0) first = id;
    };
    before_.clear();
    after_.clear();
    bool all_tainted = false;  // a barrier descends from the target
    int last_on_source = -1;
    for (int id : order_) {
        const Instruction& instr = node(id);
        bool descendant = all_tainted;
        if (instr.kind == GateKind::kBarrier) {
            descendant = all_tainted = !after_.empty();
            for (int w = 0; w < num_wires(); ++w) {
                if (descendant) {
                    taint(w, id);
                } else {
                    last_before_[static_cast<std::size_t>(w)] = id;
                }
            }
        } else {
            bool on_source = false;
            for_each_wire(instr, [&](int w) {
                descendant = descendant || w == target || first_after(w) >= 0;
                on_source = on_source || w == source;
            });
            if (descendant) {
                CAQR_CHECK(!on_source, "commit called with an invalid pair");
                for_each_wire(instr, [&](int w) { taint(w, id); });
            } else {
                for_each_wire(instr, [&](int w) {
                    last_before_[static_cast<std::size_t>(w)] = id;
                });
                if (on_source) last_on_source = id;
            }
        }
        (descendant ? after_ : before_).push_back(id);
    }
    CAQR_CHECK(last_on_source >= 0, "commit called with an invalid pair");
    splice_.split = before_.size();
    splice_.target = target;

    int clbit = node(last_on_source).kind == GateKind::kMeasure
                    ? node(last_on_source).clbit
                    : -1;
    if (clbit < 0) {
        // Source wire never measured: measure into a scratch bit so the
        // conditional reset has a condition to read.
        clbit = num_clbits_++;
        Instruction measure;
        measure.kind = GateKind::kMeasure;
        measure.qubits = {source};
        measure.clbit = clbit;
        before_.push_back(append(std::move(measure)));
    }
    Instruction reset;
    reset.kind = GateKind::kX;
    reset.qubits = {source};
    reset.condition_bit = clbit;
    reset.condition_value = 1;
    before_.push_back(append(std::move(reset)));
    splice_.resume = before_.size();
    before_.insert(before_.end(), after_.begin(), after_.end());
    order_.swap(before_);
    // The source wire continues with the target wire's operations, and
    // the first of them is the first descendant of all.
    first_after_[static_cast<std::size_t>(source)] = first_after(target);
    for (int& wire : wire_of_) {
        if (wire == target) wire = source;
    }
}

/// Materializes the current order: live wires are numbered densely in
/// head order.
circuit::Circuit
ReuseProgram::build() const
{
    std::vector<int> index_of(wire_of_.size(), -1);
    int live = 0;
    for (int q = 0; q < num_qubits(); ++q) {
        if (wire_of(q) == q) index_of[static_cast<std::size_t>(q)] = live++;
    }
    circuit::Circuit output(live, num_clbits_);
    output.copy_params_from(*input_);
    for (int id : order_) {
        Instruction instr = node(id);
        for (int& q : instr.qubits) {
            q = index_of[static_cast<std::size_t>(wire_of(q))];
        }
        output.append(std::move(instr));
    }
    return output;
}

/// A node's weight, or its finish time, under the depth and the
/// duration model.
struct NodeWeights
{
    double unit = 0.0;
    double duration = 0.0;
};

/**
 * What one sweep step needs of @p program's current order, kept across
 * the sweep's commits. Per node: the forward values (unit and duration
 * finish, and the reach set: heads of the wires whose gates are, or
 * precede, the node) and the tail under the selection metric. Per head:
 * the tables select_pair reads. Only wire-order edges exist, which are
 * the dependency DAG's edges up to transitivity, so every time and set
 * is bit-identical to those of the tests' reference DAG.
 *
 * update() re-times what the last commit moved: the forward pass runs
 * over the reset nodes and the splice's descendants, seeded from each
 * wire's last non-descendant; the backward pass over the non-descendants
 * and the reset, seeded from each wire's first descendant. Before the
 * first commit both cover the whole order. This is exact:
 *  - A non-descendant's ancestors, and the previous node on each of its
 *    wires, are unchanged, so its finish and reach set are unchanged.
 *    It never holds the target's bit: any node that does descends from
 *    a gate on the target.
 *  - A descendant's successors are all descendants in the same relative
 *    order (no descendant is on the source wire), so its tail is
 *    unchanged.
 *  - Weights are >= 0, so finish rises and tail falls along a wire, in
 *    floating point too. A head's finish and reach row are therefore
 *    the values at its last gate, and its tail the value at its first
 *    gate: the running max over its gates. The passes overwrite them
 *    gate by gate, in order and in reverse order.
 *  - Likewise the critical path, the max over node finishes, is the max
 *    over each wire's last finish: every node of positive weight lies
 *    on a wire.
 * All buffers are sized for the pool's capacity once.
 */
class StepTables
{
  public:
    StepTables(const ReuseProgram& program, bool by_duration)
        : by_duration_(by_duration),
          words_((static_cast<std::size_t>(program.num_qubits()) + 63) / 64),
          finish_(program.node_capacity()),
          tail_(program.node_capacity()),
          sets_(program.node_capacity() * words_),
          wire_node_(program.wire_capacity()),
          last_gate_(static_cast<std::size_t>(program.num_qubits()), -1),
          active_(words_),
          touched_(words_)
    {
        weights_.reserve(program.node_capacity());
        timing_.qubit_finish.assign(last_gate_.size(), 0.0);
        timing_.qubit_tail.assign(last_gate_.size(), 0.0);
    }

    /// Brings the tables to @p program's current order.
    void
    update(const ReuseProgram& program)
    {
        const circuit::UnitDepthModel unit;
        const circuit::LogicalDurations durations;
        while (weights_.size() < program.num_nodes()) {
            const Instruction& instr =
                program.node(static_cast<int>(weights_.size()));
            weights_.push_back(
                {unit.duration(instr), durations.duration(instr)});
        }
        const auto& splice = program.last_splice();
        if (splice.target >= 0) {
            // The target's gates now run on the source wire.
            clear_bit(&active_, splice.target);
            clear_bit(&touched_, splice.target);
        }
        forward(program, splice.split);
        backward(program, splice.resume);
    }

    int
    qubits() const
    {
        int count = 0;
        for (std::uint64_t word : touched_) count += std::popcount(word);
        return count;
    }
    int depth() const { return static_cast<int>(critical_.unit + 0.5); }
    double duration_dt() const { return critical_.duration; }
    /// Pricing table under the selection metric, indexed by head.
    const SpliceTiming& timing() const { return timing_; }
    /// Bitset of the heads with a non-barrier operation.
    const std::vector<std::uint64_t>& active() const { return active_; }
    /// Row @p head: the reach set of the last gate on wire @p head
    /// (the reference DAG's `qubit_reaches`, by head); @p head must be
    /// active.
    const std::uint64_t*
    reach(int head) const
    {
        return &sets_[static_cast<std::size_t>(
                          last_gate_[static_cast<std::size_t>(head)]) *
                      words_];
    }
    /// Nodes whose forward values update() computed, summed.
    std::size_t nodes_timed() const { return nodes_timed_; }

  private:
    static void
    clear_bit(std::vector<std::uint64_t>* bits, int index)
    {
        const auto i = static_cast<std::size_t>(index);
        (*bits)[i >> 6] &= ~(1ULL << (i & 63));
    }

    static void
    set_bit(std::vector<std::uint64_t>* bits, std::size_t i)
    {
        (*bits)[i >> 6] |= 1ULL << (i & 63);
    }

    /// Visits every wire of @p instr; a barrier joins every wire.
    template <typename Fn>
    static void
    visit_wires(const ReuseProgram& program, const Instruction& instr,
                Fn&& fn)
    {
        if (instr.kind == GateKind::kBarrier) {
            for (int w = 0; w < program.num_wires(); ++w) {
                fn(static_cast<std::size_t>(w));
            }
        } else {
            program.for_each_wire(
                instr, [&](int w) { fn(static_cast<std::size_t>(w)); });
        }
    }

    void
    forward(const ReuseProgram& program, std::size_t split)
    {
        const auto num_wires = static_cast<std::size_t>(program.num_wires());
        for (std::size_t w = 0; w < num_wires; ++w) {
            wire_node_[w] = program.last_before(static_cast<int>(w));
        }
        const auto& order = program.order();
        for (std::size_t pos = split; pos < order.size(); ++pos) {
            const int id = order[pos];
            const auto node = static_cast<std::size_t>(id);
            const Instruction& instr = program.node(id);
            NodeWeights start;
            std::uint64_t* set = &sets_[node * words_];
            std::fill(set, set + words_, 0);
            visit_wires(program, instr, [&](std::size_t wire) {
                const int prev = wire_node_[wire];
                if (prev < 0) return;
                const auto& before = finish_[static_cast<std::size_t>(prev)];
                start.unit = std::max(start.unit, before.unit);
                start.duration = std::max(start.duration, before.duration);
                const std::uint64_t* prev_set =
                    &sets_[static_cast<std::size_t>(prev) * words_];
                for (std::size_t k = 0; k < words_; ++k) set[k] |= prev_set[k];
            });
            const auto& weight = weights_[node];
            finish_[node] = {start.unit + weight.unit,
                             start.duration + weight.duration};
            visit_wires(program, instr,
                        [&](std::size_t wire) { wire_node_[wire] = id; });
            const bool barrier = instr.kind == GateKind::kBarrier;
            for (int q : instr.qubits) {
                const auto head = static_cast<std::size_t>(program.wire_of(q));
                set_bit(&touched_, head);
                if (barrier) continue;
                set[head >> 6] |= 1ULL << (head & 63);
                set_bit(&active_, head);
                last_gate_[head] = id;
                timing_.qubit_finish[head] =
                    by_duration_ ? finish_[node].duration : finish_[node].unit;
            }
        }
        nodes_timed_ += order.size() - split;
        critical_ = NodeWeights{};
        for (std::size_t w = 0; w < num_wires; ++w) {
            if (wire_node_[w] < 0) continue;
            const auto& last = finish_[static_cast<std::size_t>(wire_node_[w])];
            critical_.unit = std::max(critical_.unit, last.unit);
            critical_.duration = std::max(critical_.duration, last.duration);
        }
        timing_.critical_path =
            by_duration_ ? critical_.duration : critical_.unit;
    }

    void
    backward(const ReuseProgram& program, std::size_t resume)
    {
        const auto num_wires = static_cast<std::size_t>(program.num_wires());
        for (std::size_t w = 0; w < num_wires; ++w) {
            wire_node_[w] = program.first_after(static_cast<int>(w));
        }
        const auto& order = program.order();
        for (std::size_t pos = resume; pos-- > 0;) {
            const int id = order[pos];
            const auto node = static_cast<std::size_t>(id);
            const Instruction& instr = program.node(id);
            double best = 0.0;
            visit_wires(program, instr, [&](std::size_t wire) {
                const int next = wire_node_[wire];
                if (next < 0) return;
                best = std::max(best, tail_[static_cast<std::size_t>(next)]);
            });
            const auto& weight = weights_[node];
            tail_[node] = best + (by_duration_ ? weight.duration : weight.unit);
            visit_wires(program, instr,
                        [&](std::size_t wire) { wire_node_[wire] = id; });
            if (instr.kind == GateKind::kBarrier) continue;
            for (int q : instr.qubits) {
                timing_.qubit_tail[static_cast<std::size_t>(
                    program.wire_of(q))] = tail_[node];
            }
        }
    }

    bool by_duration_;
    std::size_t words_;
    // Per node, indexed by id.
    std::vector<NodeWeights> weights_;
    std::vector<NodeWeights> finish_;
    std::vector<double> tail_;
    std::vector<std::uint64_t> sets_;  ///< words_ per node
    /// Per wire: the pass's last node so far (forward) or next node
    /// (backward), or -1.
    std::vector<int> wire_node_;
    // Per head.
    std::vector<int> last_gate_;
    SpliceTiming timing_;
    std::vector<std::uint64_t> active_;
    std::vector<std::uint64_t> touched_;  ///< any instruction's operand
    NodeWeights critical_;
    std::size_t nodes_timed_ = 0;
};

/// Materializes @p program's current order as one version's circuit.
circuit::Circuit
build_version(const ReuseProgram& program)
{
    util::trace::Span span("qs_caqr.build_circuit");
    util::metrics::global().add("qs_caqr.circuits_built", 1.0);
    return program.build();
}

}  // namespace

circuit::Circuit
QsCaqrResult::circuit(std::size_t index) const
{
    CAQR_CHECK(index < versions.size(), "version index out of range");
    ReuseProgram program(input);
    for (const auto& pair : versions[index].applied) program.commit(pair);
    return build_version(program);
}

namespace {

/// Pair-selection policy for one greedy sweep.
enum class SweepPolicy {
    /// Minimize the post-splice critical path (the paper's §3.2.1 rule).
    kMetricFirst,
    /// Prefer the earliest-finishing target, breaking ties by critical
    /// path. This chains wires in temporal order and avoids some of the
    /// "crossed merge" dead ends that pure cost greed steers into, so
    /// it usually saves more qubits than kMetricFirst (BV_10 -> 2). It
    /// does not reach the minimum at device scale: sparse BV-64, BV-127
    /// and BV-400 stop at 4 qubits, where SR-CaQR reaches 2 (ROADMAP.md
    /// item 4, the chain planner).
    kOrderFirst,
};

/// The pair a step commits, and how many valid pairs it chose from.
struct Selection
{
    ReusePair best;
    std::size_t valid = 0;  ///< 0: no valid pair, the sweep ends
};

/// Calls @p fn on every set bit of @p bits, ascending.
template <typename Fn>
void
for_each_bit(const std::vector<std::uint64_t>& bits, Fn&& fn)
{
    for (std::size_t k = 0; k < bits.size(); ++k) {
        for (std::uint64_t word = bits[k]; word != 0; word &= word - 1) {
            fn(static_cast<int>(k * 64) + std::countr_zero(word));
        }
    }
}

/**
 * Prices the valid pairs of @p tables under @p policy. (source, target)
 * is valid iff no gate on target is, or precedes, a gate on source.
 * Ties go to the first candidate in (source, target) head order. A
 * source whose bounds over all active targets cannot displace the
 * incumbent is counted but not priced: no candidate it has could.
 */
Selection
select_pair(const StepTables& tables, SweepPolicy policy, double dummy_weight)
{
    const auto& timing = tables.timing();
    const auto& active = tables.active();
    const std::size_t words = active.size();
    constexpr double kInf = std::numeric_limits<double>::infinity();
    double min_finish = kInf;
    double min_tail = kInf;
    for_each_bit(active, [&](int head) {
        const auto h = static_cast<std::size_t>(head);
        min_finish = std::min(min_finish, timing.qubit_finish[h]);
        min_tail = std::min(min_tail, timing.qubit_tail[h]);
    });

    Selection selection;
    double best_primary = kInf;
    double best_secondary = kInf;
    for_each_bit(active, [&](int source) {
        const auto s = static_cast<std::size_t>(source);
        const std::uint64_t* row = tables.reach(source);
        for (std::size_t k = 0; k < words; ++k) {
            selection.valid +=
                static_cast<std::size_t>(std::popcount(active[k] & ~row[k]));
        }
        double primary_bound =
            std::max(timing.critical_path,
                     timing.qubit_finish[s] + dummy_weight + min_tail);
        double secondary_bound = min_finish;
        if (policy == SweepPolicy::kOrderFirst) {
            std::swap(primary_bound, secondary_bound);
        }
        if (primary_bound >= best_primary + 1e-9 ||
            (primary_bound >= best_primary - 1e-9 &&
             secondary_bound >= best_secondary - 1e-9)) {
            return;
        }
        for (std::size_t k = 0; k < words; ++k) {
            for (std::uint64_t bits = active[k] & ~row[k]; bits != 0;
                 bits &= bits - 1) {
                const ReusePair pair{
                    source, static_cast<int>(k * 64) + std::countr_zero(bits)};
                double primary =
                    timing.spliced_critical_path(pair, dummy_weight);
                double secondary =
                    timing.qubit_finish[static_cast<std::size_t>(pair.target)];
                if (policy == SweepPolicy::kOrderFirst) {
                    std::swap(primary, secondary);
                }
                if (primary < best_primary - 1e-9 ||
                    (primary < best_primary + 1e-9 &&
                     secondary < best_secondary - 1e-9)) {
                    best_primary = primary;
                    best_secondary = secondary;
                    selection.best = pair;
                }
            }
        }
    });
    return selection;
}

/// One sweep's versions, and its program after the last commit: the
/// last version's order, over the searched circuit.
struct Sweep
{
    std::vector<QsVersion> versions;
    ReuseProgram program;
};

/**
 * One greedy sweep (paper §3.2.1): each step prices the valid pairs in
 * closed form (select_pair) and commits the best one under @p policy.
 * A step is one commit over the same node pool and one StepTables
 * update that re-times what the commit moved; no version's circuit is
 * built. The step, candidate and re-timed node totals reach the metrics
 * registry once, at the end. The returned program reads @p circuit.
 */
Sweep
run_sweep(const circuit::Circuit& circuit, const QsCaqrOptions& options,
          SweepPolicy policy)
{
    util::trace::Span span("qs_caqr.sweep");
    const bool by_duration = options.metric == ReuseMetric::kDuration;
    const double dummy_weight =
        by_duration ? circuit::LogicalDurations::kMeasure +
                          circuit::LogicalDurations::kConditionedGate
                    : 1.0;

    ReuseProgram program(circuit);
    StepTables tables(program, by_duration);
    std::vector<QsVersion> versions;
    std::vector<ReusePair> applied;
    std::size_t steps = 0;
    std::size_t candidates = 0;
    for (;;) {
        tables.update(program);
        const int qubits = tables.qubits();
        versions.push_back(QsVersion{applied, qubits, tables.depth(),
                                     tables.duration_dt()});
        if (options.target_qubits >= 0 && qubits <= options.target_qubits) {
            break;
        }

        const auto selection = select_pair(tables, policy, dummy_weight);
        if (selection.valid == 0) break;
        ++steps;
        candidates += selection.valid;
        applied.push_back(selection.best);
        program.commit(selection.best);
    }
    auto& metrics = util::metrics::global();
    metrics.add("qs_caqr.steps", static_cast<double>(steps));
    metrics.add("qs_caqr.candidates", static_cast<double>(candidates));
    metrics.add("qs_caqr.nodes_timed",
                static_cast<double>(tables.nodes_timed()));
    return Sweep{std::move(versions), std::move(program)};
}

/// Best-effort run (no target validation): squeezes as far as the
/// budget allows and records whether the target was reached.
QsCaqrResult
run_qs_caqr(circuit::Circuit circuit, const QsCaqrOptions& options)
{
    util::trace::Span span("qs_caqr");
    // Two sweeps explore complementary regions of the search space
    // (paper: "we explore the search space of qubit reuse ... and
    // choose the best reuse strategy"): the cost-greedy sweep finds
    // efficient shallow savings, the order-preserving sweep reaches
    // deep savings. Merge by qubit count, best metric wins.
    const auto metric_sweep =
        run_sweep(circuit, options, SweepPolicy::kMetricFirst);
    const auto order_sweep =
        run_sweep(circuit, options, SweepPolicy::kOrderFirst);

    const bool by_duration = options.metric == ReuseMetric::kDuration;
    auto metric_of = [by_duration](const QsVersion& version) {
        return by_duration ? version.duration_dt
                           : static_cast<double>(version.depth);
    };

    std::map<int, const QsVersion*> by_count;
    for (const auto* sweep : {&metric_sweep, &order_sweep}) {
        for (const auto& version : sweep->versions) {
            auto [it, inserted] = by_count.try_emplace(version.qubits,
                                                       &version);
            if (!inserted && metric_of(version) < metric_of(*it->second)) {
                it->second = &version;
            }
        }
    }

    // Every commit saves one qubit, so the max-reuse version is the
    // last of the sweep that reached it, whose program holds its order:
    // build it now, while the program's input is still `circuit`.
    QsCaqrResult result;
    const QsVersion* fewest = by_count.begin()->second;
    const Sweep& owner = fewest == &metric_sweep.versions.back()
                             ? metric_sweep
                             : order_sweep;
    CAQR_CHECK(fewest == &owner.versions.back(),
               "the max-reuse version ends a sweep");
    result.max_reuse_circuit = build_version(owner.program);
    result.input = std::move(circuit);
    for (auto it = by_count.rbegin(); it != by_count.rend(); ++it) {
        result.versions.push_back(*it->second);
    }
    result.reached_target =
        options.target_qubits < 0 ||
        result.versions.back().qubits <= options.target_qubits;
    return result;
}

}  // namespace

util::StatusOr<QsCaqrResult>
qs_caqr_or(circuit::Circuit circuit, const QsCaqrOptions& options)
{
    if (options.target_qubits < -1 || options.target_qubits == 0) {
        return util::Status::invalid_argument(
            "target_qubits must be positive or -1 (minimum), got " +
            std::to_string(options.target_qubits));
    }
    QsCaqrResult result = run_qs_caqr(std::move(circuit), options);
    if (!result.reached_target) {
        return util::Status::infeasible(
            "cannot reach " + std::to_string(options.target_qubits) +
            " qubits (minimum is " +
            std::to_string(result.versions.back().qubits) + ")");
    }
    return result;
}

namespace {

/// One greedy commuting sweep. When @p evaluate_candidates is true
/// every valid candidate (up to the budget) is scheduled — across
/// `options.pool`, or @p spawned_pool, when there are threads to use —
/// and the cheapest (by duration, ties to the heuristically-first
/// candidate) wins, the paper's §3.2.2 evaluation. When false,
/// candidates follow the *temporal order* of the current schedule —
/// source retiring earliest, target retiring latest — and the first
/// valid one is committed.
/// Temporal chaining never crosses the schedule's time arrow, so it
/// reaches the deep-saving region (paper Fig 3: 64 -> ~5 qubits) that
/// duration greed dead-ends before. The candidate and evaluation
/// totals reach the metrics registry once, at the end.
std::vector<QsCommutingVersion>
run_commuting_sweep(const CommutingSpec& spec,
                    const QsCommutingOptions& options,
                    bool evaluate_candidates,
                    std::optional<util::ThreadPool>& spawned_pool)
{
    const auto& interaction = spec.interaction;
    const int n = interaction.num_nodes();
    const int threads =
        util::ThreadPool::resolve_threads(options.num_threads);

    std::vector<QsCommutingVersion> versions;
    QsCommutingVersion base;
    base.schedule = schedule_commuting(spec, {}, options.scheduling);
    base.qubits = base.schedule.wires_used;
    versions.push_back(std::move(base));

    std::vector<bool> is_source(static_cast<std::size_t>(n), false);
    std::vector<bool> is_target(static_cast<std::size_t>(n), false);

    std::size_t candidates_seen = 0;
    std::size_t schedules_evaluated = 0;
    std::size_t pool_tasks = 0;
    std::size_t serial_tasks = 0;
    while (options.target_qubits < 0 ||
           versions.back().qubits > options.target_qubits) {
        const auto& current = versions.back();

        // Retirement position of each problem qubit in the current
        // schedule (= position of its measurement).
        std::vector<int> retire_pos(static_cast<std::size_t>(n), 0);
        for (std::size_t i = 0; i < current.schedule.circuit.size();
             ++i) {
            const auto& instr = current.schedule.circuit.at(i);
            if (instr.kind == circuit::GateKind::kMeasure &&
                instr.clbit >= 0 && instr.clbit < n) {
                retire_pos[instr.clbit] = static_cast<int>(i);
            }
        }

        struct Candidate
        {
            ReusePair pair;
            long long heuristic;
        };
        std::vector<Candidate> candidates;
        for (int s = 0; s < n; ++s) {
            if (is_source[s]) continue;
            for (int t = 0; t < n; ++t) {
                if (s == t || is_target[t]) continue;
                if (interaction.has_edge(s, t)) continue;
                long long heuristic;
                if (evaluate_candidates) {
                    // Cheap-first pre-ranking for the evaluation budget.
                    heuristic =
                        interaction.degree(s) + interaction.degree(t);
                } else {
                    // Temporal order: earliest-retiring source first,
                    // latest-retiring target first.
                    const long long span = static_cast<long long>(
                        current.schedule.circuit.size() + 1);
                    heuristic = static_cast<long long>(retire_pos[s]) *
                                    span -
                                retire_pos[t];
                }
                candidates.push_back({ReusePair{s, t}, heuristic});
            }
        }
        if (candidates.empty()) break;
        candidates_seen += candidates.size();
        std::stable_sort(candidates.begin(), candidates.end(),
                         [](const Candidate& a, const Candidate& b) {
                             return a.heuristic < b.heuristic;
                         });

        const Candidate* best = nullptr;
        CommutingSchedule best_schedule;
        if (evaluate_candidates) {
            // The first max_candidates *valid* candidates in heuristic
            // order form the evaluation batch (identical to the serial
            // walk, which skipped cyclic candidates without charging
            // them to the budget).
            std::vector<const Candidate*> valid;
            std::vector<std::vector<ReusePair>> pair_sets;
            for (const auto& candidate : candidates) {
                if (static_cast<int>(valid.size()) >=
                    options.max_candidates) {
                    break;
                }
                auto pairs = current.pairs;
                pairs.push_back(candidate.pair);
                if (!commuting_pairs_valid(interaction, pairs,
                                           spec.layers)) {
                    continue;
                }
                valid.push_back(&candidate);
                pair_sets.push_back(std::move(pairs));
            }
            if (valid.empty()) break;  // every candidate was cyclic

            auto schedule_one = [&](std::size_t i) {
                return schedule_commuting(spec, pair_sets[i],
                                          options.scheduling);
            };
            schedules_evaluated += valid.size();
            // A batch too small to pay for a pool, or a search run with
            // one thread, stays serial.
            const bool parallel = threads > 1 && valid.size() >= 4;
            (parallel ? pool_tasks : serial_tasks) += valid.size();
            std::vector<CommutingSchedule> schedules = util::fan_out(
                valid.size(), parallel ? threads : 1, options.pool,
                spawned_pool, schedule_one);
            // Min duration, ties to the lowest candidate index — the
            // same winner the serial strict-< walk picked.
            std::size_t best_index = 0;
            for (std::size_t i = 1; i < schedules.size(); ++i) {
                if (schedules[i].duration_dt <
                    schedules[best_index].duration_dt) {
                    best_index = i;
                }
            }
            best = valid[best_index];
            best_schedule = std::move(schedules[best_index]);
        } else {
            for (const auto& candidate : candidates) {
                auto pairs = current.pairs;
                pairs.push_back(candidate.pair);
                if (!commuting_pairs_valid(interaction, pairs,
                                           spec.layers)) {
                    continue;
                }
                best = &candidate;
                best_schedule =
                    schedule_commuting(spec, pairs, options.scheduling);
                break;  // temporal: take the first valid candidate
            }
            if (best == nullptr) break;  // every candidate was cyclic
        }

        QsCommutingVersion next;
        next.pairs = current.pairs;
        next.pairs.push_back(best->pair);
        next.schedule = std::move(best_schedule);
        next.qubits = next.schedule.wires_used;
        is_source[best->pair.source] = true;
        is_target[best->pair.target] = true;
        versions.push_back(std::move(next));
    }
    auto& metrics = util::metrics::global();
    metrics.add("qs_commuting.candidates",
                static_cast<double>(candidates_seen));
    metrics.add("qs_commuting.schedules_evaluated",
                static_cast<double>(schedules_evaluated));
    metrics.add("qs_commuting.pool_tasks", static_cast<double>(pool_tasks));
    metrics.add("qs_commuting.serial_tasks",
                static_cast<double>(serial_tasks));
    return versions;
}

/// Best-effort commuting run; see run_qs_caqr.
QsCommutingResult
run_qs_caqr_commuting(const CommutingSpec& spec,
                      const QsCommutingOptions& options)
{
    util::trace::Span span("qs_caqr_commuting");
    QsCommutingResult result;
    result.coloring_bound = min_qubits_by_coloring(spec.interaction);

    std::optional<util::ThreadPool> spawned_pool;
    const auto eval_sweep = run_commuting_sweep(
        spec, options, /*evaluate_candidates=*/true, spawned_pool);
    const auto chain_sweep = run_commuting_sweep(
        spec, options, /*evaluate_candidates=*/false, spawned_pool);

    // Budget-directed phase: the incremental sweeps dead-end once the
    // accumulated dependence graph makes every further pair cyclic;
    // direct budget scheduling (paper §2.2) reaches the deep-saving
    // region down toward the coloring bound.
    std::vector<QsCommutingVersion> budget_versions;
    {
        int start = spec.interaction.num_nodes();
        for (const auto* sweep : {&eval_sweep, &chain_sweep}) {
            if (!sweep->empty()) {
                start = std::min(start, sweep->back().qubits);
            }
        }
        const int floor_count =
            std::max(1, options.target_qubits >= 0
                            ? options.target_qubits
                            : result.coloring_bound);
        for (int budget = start - 1; budget >= floor_count; --budget) {
            std::vector<ReusePair> pairs;
            auto schedule = schedule_with_budget(spec, budget,
                                                 options.scheduling,
                                                 &pairs);
            if (!schedule.has_value()) break;  // infeasible below here
            QsCommutingVersion version;
            version.pairs = std::move(pairs);
            version.schedule = std::move(*schedule);
            version.qubits = version.schedule.wires_used;
            budget_versions.push_back(std::move(version));
        }
        util::metrics::global().add(
            "qs_commuting.budget_schedules",
            static_cast<double>(budget_versions.size()));
    }

    std::map<int, const QsCommutingVersion*> by_count;
    for (const auto* sweep :
         std::initializer_list<const std::vector<QsCommutingVersion>*>{
             &eval_sweep, &chain_sweep, &budget_versions}) {
        for (const auto& version : *sweep) {
            auto [it, inserted] =
                by_count.try_emplace(version.qubits, &version);
            if (!inserted && version.schedule.duration_dt <
                                 it->second->schedule.duration_dt) {
                it->second = &version;
            }
        }
    }
    for (auto it = by_count.rbegin(); it != by_count.rend(); ++it) {
        result.versions.push_back(*it->second);
    }

    result.reached_target =
        options.target_qubits < 0 ||
        result.versions.back().qubits <= options.target_qubits;
    return result;
}

}  // namespace

util::StatusOr<QsCommutingResult>
qs_caqr_commuting_or(const CommutingSpec& spec,
                     const QsCommutingOptions& options)
{
    if (options.target_qubits < -1 || options.target_qubits == 0) {
        return util::Status::invalid_argument(
            "target_qubits must be positive or -1 (minimum), got " +
            std::to_string(options.target_qubits));
    }
    QsCommutingResult result = run_qs_caqr_commuting(spec, options);
    if (!result.reached_target) {
        return util::Status::infeasible(
            "cannot reach " + std::to_string(options.target_qubits) +
            " qubits (coloring bound is " +
            std::to_string(result.coloring_bound) + ")");
    }
    return result;
}

}  // namespace caqr::core
