#include "circuit/gate.h"

#include <array>
#include <utility>

#include "util/logging.h"

namespace caqr::circuit {

namespace {

struct GateInfo
{
    GateKind kind;
    std::string_view name;
    int arity;
    int num_params;
};

constexpr std::size_t kNumGateKinds =
    static_cast<std::size_t>(GateKind::kBarrier) + 1;

/// Indexed by the enum value: entry i describes GateKind i.
constexpr std::array<GateInfo, kNumGateKinds> kGateTable = {{
    {GateKind::kH, "h", 1, 0},
    {GateKind::kX, "x", 1, 0},
    {GateKind::kY, "y", 1, 0},
    {GateKind::kZ, "z", 1, 0},
    {GateKind::kS, "s", 1, 0},
    {GateKind::kSdg, "sdg", 1, 0},
    {GateKind::kT, "t", 1, 0},
    {GateKind::kTdg, "tdg", 1, 0},
    {GateKind::kRx, "rx", 1, 1},
    {GateKind::kRy, "ry", 1, 1},
    {GateKind::kRz, "rz", 1, 1},
    {GateKind::kU, "u", 1, 3},
    {GateKind::kCx, "cx", 2, 0},
    {GateKind::kCz, "cz", 2, 0},
    {GateKind::kRzz, "rzz", 2, 1},
    {GateKind::kSwap, "swap", 2, 0},
    {GateKind::kCcx, "ccx", 3, 0},
    {GateKind::kMeasure, "measure", 1, 0},
    {GateKind::kReset, "reset", 1, 0},
    {GateKind::kBarrier, "barrier", 0, 0},
}};

constexpr bool
table_is_indexed_by_kind()
{
    for (std::size_t i = 0; i < kGateTable.size(); ++i) {
        if (static_cast<std::size_t>(kGateTable[i].kind) != i) return false;
    }
    return true;
}
static_assert(table_is_indexed_by_kind(),
              "kGateTable entry i must describe GateKind i");

std::size_t
index_of(GateKind kind)
{
    const auto index = static_cast<std::size_t>(kind);
    if (index >= kGateTable.size()) util::panic("unknown gate kind");
    return index;
}

const GateInfo&
info(GateKind kind)
{
    return kGateTable[index_of(kind)];
}

}  // namespace

int
gate_arity(GateKind kind)
{
    return info(kind).arity;
}

int
gate_num_params(GateKind kind)
{
    return info(kind).num_params;
}

bool
is_two_qubit(GateKind kind)
{
    return gate_arity(kind) == 2;
}

bool
is_unitary(GateKind kind)
{
    return kind != GateKind::kMeasure && kind != GateKind::kReset &&
           kind != GateKind::kBarrier;
}

const std::string&
gate_name(GateKind kind)
{
    static const std::array<std::string, kNumGateKinds> names = [] {
        std::array<std::string, kNumGateKinds> result;
        for (std::size_t i = 0; i < kGateTable.size(); ++i) {
            result[i] = std::string(kGateTable[i].name);
        }
        return result;
    }();
    return names[index_of(kind)];
}

bool
gate_kind_from_name(std::string_view name, GateKind* kind)
{
    for (const auto& entry : kGateTable) {
        if (name == entry.name) {
            *kind = entry.kind;
            return true;
        }
    }
    return false;
}

}  // namespace caqr::circuit
