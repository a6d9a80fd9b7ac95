#include "core/qs_caqr.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <map>
#include <numeric>
#include <span>
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
 * (paper §3.2.1), kept as per-node wire links. Nodes 0..G-1 are the
 * input's instructions; each commit appends its reset nodes. Operands
 * keep their original qubit ids, and `wire_of(q)` names the wire qubit
 * q runs on by that wire's head, the first original qubit on it, so
 * live wires keep their relative order, as wire compaction does. Wires
 * 0..num_qubits-1 are the heads; clbit c is wire num_qubits + c.
 *
 * A node holds one Link per distinct wire it is on: the previous and
 * the next node on that wire, or -1. A barrier joins every head and
 * every input clbit, its link on wire w at index w. It needs no link on
 * a commit's scratch clbit: that wire holds only the measure and the
 * reset, and both are on a head too. Only wire-order edges exist, which
 * are the dependency DAG's edges up to transitivity. The order is a
 * topological order of the links, the one a smallest-index-first sort
 * of the spliced DAG emits, and each node knows its position in it.
 */
class ReuseProgram
{
  public:
    /// One wire of a node: the previous and the next node on it, or -1.
    struct Link
    {
        int wire = -1;
        int prev = -1;
        int next = -1;
    };

    /// What the last commit changed, for StepTables::update.
    struct Splice
    {
        /// order()[split, end): the reset nodes, then the splice's
        /// descendants. Before the first commit, the whole order.
        std::size_t split = 0;
        /// The head the commit merged away, or -1.
        int target = -1;
    };

    explicit ReuseProgram(const circuit::Circuit& input);

    int num_qubits() const { return input_->num_qubits(); }
    std::size_t num_nodes() const { return input_->size() + appended_.size(); }
    std::size_t
    node_capacity() const
    {
        return input_->size() + 2 * static_cast<std::size_t>(num_qubits());
    }
    const std::vector<int>& order() const { return order_; }
    std::size_t
    position(int id) const
    {
        return position_[static_cast<std::size_t>(id)];
    }
    int wire_of(int q) const { return wire_of_[static_cast<std::size_t>(q)]; }
    /// First non-barrier node on head @p head's wire, or -1 (idle or
    /// merged away).
    int
    first_gate(int head) const
    {
        return first_gate_[static_cast<std::size_t>(head)];
    }
    /// Last non-barrier node on head @p head's wire, or -1.
    int
    last_gate(int head) const
    {
        return last_gate_[static_cast<std::size_t>(head)];
    }
    const Splice& last_splice() const { return splice_; }

    const Instruction&
    node(int id) const
    {
        const auto index = static_cast<std::size_t>(id);
        return index < input_->size() ? input_->at(index)
                                      : appended_[index - input_->size()];
    }

    /// Node @p id's links, one per distinct wire it is on; a barrier's
    /// link on wire w is at index w.
    std::span<const Link>
    links(int id) const
    {
        const auto index = static_cast<std::size_t>(id);
        return std::span<const Link>(links_).subspan(
            link_begin_[index], link_begin_[index + 1] - link_begin_[index]);
    }

    void commit(ReusePair pair);
    circuit::Circuit build() const;

  private:
    bool is_barrier(int id) const { return node(id).kind == GateKind::kBarrier; }

    /// Node @p id's link on wire @p wire, which it must be on.
    Link&
    link_on(int id, int wire)
    {
        std::size_t k = link_begin_[static_cast<std::size_t>(id)];
        if (is_barrier(id)) return links_[k + static_cast<std::size_t>(wire)];
        while (links_[k].wire != wire) ++k;
        return links_[k];
    }

    int
    append(Instruction instr, std::initializer_list<Link> links)
    {
        appended_.push_back(std::move(instr));
        links_.insert(links_.end(), links);
        link_begin_.push_back(links_.size());
        return static_cast<int>(num_nodes()) - 1;
    }

    /// True if @p id descends from the target of the running commit.
    bool
    descends(int id) const
    {
        return mark_[static_cast<std::size_t>(id)] == commits_;
    }

    const circuit::Circuit* input_;
    std::vector<Instruction> appended_;
    std::vector<Link> links_;
    std::vector<std::size_t> link_begin_;  ///< num_nodes() + 1 entries
    std::vector<int> order_;
    std::vector<std::size_t> position_;
    std::vector<int> wire_of_;
    std::vector<int> first_gate_;
    std::vector<int> last_gate_;
    int num_clbits_;
    Splice splice_;
    int commits_ = 0;
    std::vector<int> mark_;    ///< commit that found the node a descendant
    std::vector<int> stack_;   ///< commit's scratch: descendant walk
    std::vector<int> after_;   ///< commit's scratch: descendants in order
};

ReuseProgram::ReuseProgram(const circuit::Circuit& input)
    : input_(&input),
      order_(input.size()),
      wire_of_(static_cast<std::size_t>(input.num_qubits())),
      first_gate_(wire_of_.size(), -1),
      last_gate_(wire_of_.size(), -1),
      num_clbits_(input.num_clbits())
{
    std::iota(order_.begin(), order_.end(), 0);
    std::iota(wire_of_.begin(), wire_of_.end(), 0);
    // At most num_qubits - 1 commits, each appending at most two nodes
    // with two links each: size every buffer once.
    const auto qubits = static_cast<std::size_t>(num_qubits());
    appended_.reserve(2 * qubits);
    order_.reserve(node_capacity());
    position_.resize(node_capacity());
    std::iota(position_.begin(), position_.end(), 0);
    mark_.assign(node_capacity(), -1);
    link_begin_.reserve(node_capacity() + 1);

    const auto wires = qubits + static_cast<std::size_t>(num_clbits_);
    std::vector<int> last(wires, -1);  // per wire: its last node so far
    std::vector<std::size_t> last_link(wires);
    const auto add = [&](int id, int wire) {
        const auto w = static_cast<std::size_t>(wire);
        if (last[w] >= 0) links_[last_link[w]].next = id;
        last_link[w] = links_.size();
        links_.push_back(Link{wire, last[w], -1});
        last[w] = id;
    };
    for (int id = 0; id < static_cast<int>(input.size()); ++id) {
        link_begin_.push_back(links_.size());
        const Instruction& instr = node(id);
        if (instr.kind == GateKind::kBarrier) {
            for (int w = 0; w < static_cast<int>(wires); ++w) add(id, w);
            continue;
        }
        // A wire the node is already on (an operand repeated, or a
        // clbit that is also the condition) gets no second link.
        const auto add_once = [&](int wire) {
            const auto w = static_cast<std::size_t>(wire);
            if (last[w] != id) add(id, wire);
        };
        for (int q : instr.qubits) {
            add_once(q);
            const auto head = static_cast<std::size_t>(q);
            if (first_gate_[head] < 0) first_gate_[head] = id;
            last_gate_[head] = id;
        }
        if (instr.clbit >= 0) add_once(num_qubits() + instr.clbit);
        if (instr.condition_bit >= 0) {
            add_once(num_qubits() + instr.condition_bit);
        }
    }
    link_begin_.push_back(links_.size());
    links_.reserve(links_.size() + 4 * qubits);
}

/**
 * Commits @p pair, given by wire heads: splices the source wire's reset
 * (a measure unless the source wire already ends in one, then an x_if)
 * between its operations and the target wire's, then moves the target
 * wire's operations onto the source wire. The descendants are what the
 * target's first gate reaches over the links. The new order is the
 * splice's non-descendants in current order, the reset, then the
 * descendants in current order; the nodes before the target's first
 * gate keep their positions. A commit relinks only:
 *  - the source wire: its last non-descendant `lx`, then the reset,
 *    then the target's first gate;
 *  - the reset's clbit: between the bit's last non-descendant and its
 *    first descendant (a scratch bit holds the measure and the x_if);
 *  - the target wire's links, which move onto the source wire. A barrier
 *    before the target's first gate drops its target link; one after it
 *    hands its target-chain links over to its source link, since its
 *    old source neighbours are lx and other barriers.
 */
void
ReuseProgram::commit(ReusePair pair)
{
    const int source = pair.source;
    const int target = pair.target;
    CAQR_CHECK(source != target && wire_of(source) == source &&
                   wire_of(target) == target && first_gate(source) >= 0 &&
                   first_gate(target) >= 0,
               "commit needs two active wire heads");
    ++commits_;
    const int first = first_gate(target);
    mark_[static_cast<std::size_t>(first)] = commits_;
    stack_.assign(1, first);
    while (!stack_.empty()) {
        const int id = stack_.back();
        stack_.pop_back();
        for (const Link& link : links(id)) {
            if (link.next < 0 || descends(link.next)) continue;
            mark_[static_cast<std::size_t>(link.next)] = commits_;
            stack_.push_back(link.next);
        }
    }
    // A wire's descendants are a suffix of it, so a valid pair leaves
    // the source's last gate a non-descendant.
    const int last_on_source = last_gate(source);
    CAQR_CHECK(!descends(last_on_source), "commit called with an invalid pair");
    int lx = last_on_source;
    for (int next; (next = link_on(lx, source).next) >= 0 && !descends(next);) {
        lx = next;
    }
    int clbit = -1;
    int bit_prev = -1;  // the reset's neighbours on its clbit's wire
    int bit_next = -1;
    if (node(last_on_source).kind == GateKind::kMeasure) {
        clbit = node(last_on_source).clbit;
        const int wire = num_qubits() + clbit;
        bit_prev = last_on_source;
        for (int next; (next = link_on(bit_prev, wire).next) >= 0 &&
                       !descends(next);) {
            bit_prev = next;
        }
        bit_next = link_on(bit_prev, wire).next;
    }

    for (int id = link_on(first, target).prev; id >= 0;) {
        Link& dead = link_on(id, target);
        id = dead.prev;
        dead.prev = dead.next = -1;
    }
    for (int id = first; id >= 0;) {
        Link& link = link_on(id, target);
        const int next = link.next;
        if (is_barrier(id)) {
            link_on(id, source) = Link{source, link.prev, link.next};
            link.prev = link.next = -1;
        } else {
            link.wire = source;
        }
        id = next;
    }

    const bool measured = clbit >= 0;
    int measure = -1;
    if (!measured) {
        // Source wire never measured: measure into a scratch bit so the
        // conditional reset has a condition to read.
        clbit = num_clbits_++;
        measure = static_cast<int>(num_nodes());
    }
    const int bit_wire = num_qubits() + clbit;
    const int reset = static_cast<int>(num_nodes()) + (measured ? 0 : 1);
    if (!measured) {
        Instruction instr;
        instr.kind = GateKind::kMeasure;
        instr.qubits = {source};
        instr.clbit = clbit;
        append(std::move(instr),
               {Link{source, lx, reset}, Link{bit_wire, -1, reset}});
        bit_prev = measure;
    }
    Instruction instr;
    instr.kind = GateKind::kX;
    instr.qubits = {source};
    instr.condition_bit = clbit;
    instr.condition_value = 1;
    append(std::move(instr), {Link{source, measured ? lx : measure, first},
                              Link{bit_wire, bit_prev, bit_next}});
    link_on(lx, source).next = measured ? reset : measure;
    link_on(first, source).prev = reset;
    if (measured) {
        link_on(bit_prev, bit_wire).next = reset;
        if (bit_next >= 0) link_on(bit_next, bit_wire).prev = reset;
    }

    // Everything before the target's first gate is a non-descendant.
    const std::size_t from = position(first);
    std::size_t kept = from;
    after_.clear();
    for (std::size_t pos = from; pos < order_.size(); ++pos) {
        const int id = order_[pos];
        if (descends(id)) {
            after_.push_back(id);
        } else {
            order_[kept++] = id;
        }
    }
    order_.resize(kept);
    splice_ = Splice{kept, target};
    if (!measured) order_.push_back(measure);
    order_.push_back(reset);
    order_.insert(order_.end(), after_.begin(), after_.end());
    for (std::size_t pos = from; pos < order_.size(); ++pos) {
        position_[static_cast<std::size_t>(order_[pos])] = pos;
    }

    for (int& wire : wire_of_) {
        if (wire == target) wire = source;
    }
    last_gate_[static_cast<std::size_t>(source)] = last_gate(target);
    first_gate_[static_cast<std::size_t>(target)] = -1;
    last_gate_[static_cast<std::size_t>(target)] = -1;
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
 * What one sweep step needs of a program's current order, kept across
 * the sweep's commits. Per node: the forward values (unit and duration
 * finish, and the reach set: heads of the wires whose gates are, or
 * precede, the node) and the tail under the selection metric. Per head:
 * the tables select_pair reads. Both passes follow the program's links,
 * so every time and set is bit-identical to those of the tests'
 * reference DAG.
 *
 * update() re-times what the last commit changed: the forward pass runs
 * over the reset nodes and the splice's descendants, reading each
 * node's predecessors; the backward pass re-tails the reset nodes and
 * then, latest position first, each predecessor of a node whose tail
 * changed. Before the first commit both cover the whole order. This is
 * exact:
 *  - A non-descendant's ancestors, and the previous node on each of its
 *    wires, are unchanged, so its finish and reach set are unchanged.
 *    It never holds the target's bit: any node that does descends from
 *    a gate on the target.
 *  - A descendant reaches the same nodes as before, so its tail is
 *    unchanged. Only the reset nodes' ancestors gain paths. Each link a
 *    commit drops skips a path that its node keeps: lx's old source
 *    link and a barrier's target link before the target's first gate
 *    through lx and the reset, a later barrier's old source links
 *    through the target's gates.
 *  - Weights are >= 0, so finish rises and tail falls along every path,
 *    in floating point too. A tail computed bit for bit as before
 *    therefore leaves its predecessors' tails as they were, and the
 *    worklist stops there. The critical path, the max over node
 *    finishes, is a running max: a commit only adds paths, so no finish
 *    falls.
 *  - A head's finish and reach row are the values at its last gate, and
 *    its tail the value at its first gate.
 * All buffers are sized for the pool's capacity once.
 */
class StepTables
{
  public:
    StepTables(const ReuseProgram& program, bool by_duration)
        : program_(&program),
          by_duration_(by_duration),
          words_((static_cast<std::size_t>(program.num_qubits()) + 63) / 64),
          finish_(program.node_capacity()),
          tail_(program.node_capacity()),
          sets_(program.node_capacity() * words_),
          queued_(program.node_capacity(), 0),
          active_(words_),
          touched_(words_)
    {
        weights_.reserve(program.node_capacity());
        heap_.reserve(program.node_capacity());
        const auto heads = static_cast<std::size_t>(program.num_qubits());
        timing_.qubit_finish.assign(heads, 0.0);
        timing_.qubit_tail.assign(heads, 0.0);
    }

    /// Brings the tables to the program's current order.
    void
    update()
    {
        const circuit::UnitDepthModel unit;
        const circuit::LogicalDurations durations;
        const std::size_t fresh = weights_.size();
        while (weights_.size() < program_->num_nodes()) {
            const Instruction& instr =
                program_->node(static_cast<int>(weights_.size()));
            weights_.push_back(
                {unit.duration(instr), durations.duration(instr)});
        }
        const auto& splice = program_->last_splice();
        if (splice.target >= 0) {
            // The target's gates now run on the source wire.
            clear_bit(&active_, splice.target);
            clear_bit(&touched_, splice.target);
        }
        forward(splice.split);
        backward(fresh);
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
        return &sets_[static_cast<std::size_t>(program_->last_gate(head)) *
                      words_];
    }
    /// Nodes whose forward values update() computed, summed.
    std::size_t nodes_timed() const { return nodes_timed_; }
    /// Nodes whose tail update() computed, summed.
    std::size_t nodes_tailed() const { return nodes_tailed_; }

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

    void
    forward(std::size_t split)
    {
        const ReuseProgram& program = *program_;
        const auto& order = program.order();
        for (std::size_t pos = split; pos < order.size(); ++pos) {
            const int id = order[pos];
            const auto node = static_cast<std::size_t>(id);
            NodeWeights start;
            std::uint64_t* set = &sets_[node * words_];
            std::fill(set, set + words_, 0);
            for (const auto& link : program.links(id)) {
                if (link.prev < 0) continue;
                const auto prev = static_cast<std::size_t>(link.prev);
                start.unit = std::max(start.unit, finish_[prev].unit);
                start.duration =
                    std::max(start.duration, finish_[prev].duration);
                const std::uint64_t* prev_set = &sets_[prev * words_];
                for (std::size_t k = 0; k < words_; ++k) set[k] |= prev_set[k];
            }
            const auto& weight = weights_[node];
            finish_[node] = {start.unit + weight.unit,
                             start.duration + weight.duration};
            critical_.unit = std::max(critical_.unit, finish_[node].unit);
            critical_.duration =
                std::max(critical_.duration, finish_[node].duration);
            const Instruction& instr = program.node(id);
            const bool barrier = instr.kind == GateKind::kBarrier;
            for (int q : instr.qubits) {
                const auto head = static_cast<std::size_t>(program.wire_of(q));
                set_bit(&touched_, head);
                if (barrier) continue;
                set[head >> 6] |= 1ULL << (head & 63);
                set_bit(&active_, head);
                timing_.qubit_finish[head] =
                    by_duration_ ? finish_[node].duration : finish_[node].unit;
            }
        }
        nodes_timed_ += order.size() - split;
        timing_.critical_path =
            by_duration_ ? critical_.duration : critical_.unit;
    }

    /// Re-tails the nodes from id @p fresh on, which the tables have not
    /// seen (the whole pool at first, then a commit's reset nodes), and
    /// every ancestor of theirs whose tail changes.
    void
    backward(std::size_t fresh)
    {
        const ReuseProgram& program = *program_;
        ++pass_;
        heap_.clear();
        for (std::size_t id = fresh; id < program.num_nodes(); ++id) {
            queued_[id] = pass_;
            heap_.push_back(program.position(static_cast<int>(id)));
        }
        std::make_heap(heap_.begin(), heap_.end());
        while (!heap_.empty()) {
            std::pop_heap(heap_.begin(), heap_.end());
            const int id = program.order()[heap_.back()];
            heap_.pop_back();
            const auto node = static_cast<std::size_t>(id);
            double best = 0.0;
            for (const auto& link : program.links(id)) {
                if (link.next < 0) continue;
                best = std::max(best, tail_[static_cast<std::size_t>(link.next)]);
            }
            const auto& weight = weights_[node];
            const double tail =
                best + (by_duration_ ? weight.duration : weight.unit);
            ++nodes_tailed_;
            if (node < fresh && tail == tail_[node]) continue;
            tail_[node] = tail;
            const Instruction& instr = program.node(id);
            if (instr.kind != GateKind::kBarrier) {
                for (int q : instr.qubits) {
                    const int head = program.wire_of(q);
                    if (program.first_gate(head) == id) {
                        timing_.qubit_tail[static_cast<std::size_t>(head)] =
                            tail;
                    }
                }
            }
            for (const auto& link : program.links(id)) {
                if (link.prev < 0) continue;
                auto& queued = queued_[static_cast<std::size_t>(link.prev)];
                if (queued == pass_) continue;
                queued = pass_;
                heap_.push_back(program.position(link.prev));
                std::push_heap(heap_.begin(), heap_.end());
            }
        }
    }

    const ReuseProgram* program_;
    bool by_duration_;
    std::size_t words_;
    // Per node, indexed by id.
    std::vector<NodeWeights> weights_;
    std::vector<NodeWeights> finish_;
    std::vector<double> tail_;
    std::vector<std::uint64_t> sets_;  ///< words_ per node
    std::vector<std::uint64_t> queued_;  ///< backward pass that queued it
    // The backward pass's worklist: a max-heap of positions.
    std::vector<std::size_t> heap_;
    std::uint64_t pass_ = 0;
    // Per head.
    SpliceTiming timing_;
    std::vector<std::uint64_t> active_;
    std::vector<std::uint64_t> touched_;  ///< any instruction's operand
    NodeWeights critical_;
    std::size_t nodes_timed_ = 0;
    std::size_t nodes_tailed_ = 0;
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

/// One version a sweep reached: its first `commits` pairs and their
/// cost.
struct SweepVersion
{
    std::size_t commits = 0;
    int qubits = 0;
    int depth = 0;
    double duration_dt = 0.0;
};

/// One sweep's committed pairs, its versions, and its program after the
/// last commit: the last version's order, over the searched circuit.
struct Sweep
{
    std::vector<ReusePair> applied;
    std::vector<SweepVersion> versions;
    ReuseProgram program;
};

/**
 * One greedy sweep (paper §3.2.1): each step prices the valid pairs in
 * closed form (select_pair) and commits the best one under @p policy.
 * A step is one commit over the same node pool and one StepTables
 * update that re-times what the commit changed; no version's circuit is
 * built, and a version records only how many of the sweep's pairs it
 * applied. The step, candidate, re-timed and re-tailed node totals
 * reach the metrics registry once, at the end. The returned program
 * reads @p circuit.
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
    std::vector<SweepVersion> versions;
    std::vector<ReusePair> applied;
    std::size_t candidates = 0;
    for (;;) {
        tables.update();
        const int qubits = tables.qubits();
        versions.push_back(SweepVersion{applied.size(), qubits,
                                        tables.depth(), tables.duration_dt()});
        if (options.target_qubits >= 0 && qubits <= options.target_qubits) {
            break;
        }

        const auto selection = select_pair(tables, policy, dummy_weight);
        if (selection.valid == 0) break;
        candidates += selection.valid;
        applied.push_back(selection.best);
        program.commit(selection.best);
    }
    auto& metrics = util::metrics::global();
    metrics.add("qs_caqr.steps", static_cast<double>(applied.size()));
    metrics.add("qs_caqr.candidates", static_cast<double>(candidates));
    metrics.add("qs_caqr.nodes_timed",
                static_cast<double>(tables.nodes_timed()));
    metrics.add("qs_caqr.nodes_tailed",
                static_cast<double>(tables.nodes_tailed()));
    return Sweep{std::move(applied), std::move(versions), std::move(program)};
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
    auto metric_of = [by_duration](const SweepVersion& version) {
        return by_duration ? version.duration_dt
                           : static_cast<double>(version.depth);
    };

    struct Kept
    {
        const Sweep* sweep;
        const SweepVersion* version;
    };
    std::map<int, Kept> by_count;
    for (const auto* sweep : {&metric_sweep, &order_sweep}) {
        for (const auto& version : sweep->versions) {
            auto [it, inserted] =
                by_count.try_emplace(version.qubits, Kept{sweep, &version});
            if (!inserted &&
                metric_of(version) < metric_of(*it->second.version)) {
                it->second = Kept{sweep, &version};
            }
        }
    }

    // Every commit saves one qubit, so the max-reuse version is the
    // last of the sweep that reached it, whose program holds its order:
    // build it now, while the program's input is still `circuit`.
    QsCaqrResult result;
    const Kept& fewest = by_count.begin()->second;
    CAQR_CHECK(fewest.version == &fewest.sweep->versions.back(),
               "the max-reuse version ends a sweep");
    result.max_reuse_circuit = build_version(fewest.sweep->program);
    result.input = std::move(circuit);
    for (auto it = by_count.rbegin(); it != by_count.rend(); ++it) {
        const auto& applied = it->second.sweep->applied;
        const SweepVersion& version = *it->second.version;
        result.versions.push_back(QsVersion{
            {applied.begin(),
             applied.begin() + static_cast<std::ptrdiff_t>(version.commits)},
            version.qubits, version.depth, version.duration_dt});
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
/// every valid candidate (up to the budget) is scheduled — on the
/// shared pool when there are threads to use — and the cheapest (by
/// duration, ties to the heuristically-first candidate) wins, the
/// paper's §3.2.2 evaluation. When false,
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
                    bool evaluate_candidates)
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
                valid.size(), parallel ? threads : 1, schedule_one);
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

    const auto eval_sweep =
        run_commuting_sweep(spec, options, /*evaluate_candidates=*/true);
    const auto chain_sweep =
        run_commuting_sweep(spec, options, /*evaluate_candidates=*/false);

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
