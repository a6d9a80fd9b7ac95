#include "transpile/layout.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "util/logging.h"

namespace caqr::transpile {

Layout
trivial_layout(const circuit::Circuit& circuit, const arch::Backend& backend)
{
    CAQR_CHECK(circuit.num_qubits() <= backend.num_qubits(),
               "circuit does not fit the backend");
    Layout layout(static_cast<std::size_t>(circuit.num_qubits()));
    std::iota(layout.begin(), layout.end(), 0);
    return layout;
}

Layout
greedy_layout(const circuit::Circuit& circuit, const arch::Backend& backend)
{
    const int nl = circuit.num_qubits();
    const int np = backend.num_qubits();
    CAQR_CHECK(nl <= np, "circuit does not fit the backend");

    const auto interaction = circuit.interaction_graph();
    const auto& topology = backend.topology();

    // Logical order: descending interaction degree.
    std::vector<int> order(static_cast<std::size_t>(nl));
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return interaction.degree(a) > interaction.degree(b);
    });

    Layout layout(static_cast<std::size_t>(nl), -1);
    std::vector<bool> used(static_cast<std::size_t>(np), false);

    for (int logical : order) {
        // Collect already-placed interaction partners.
        std::vector<int> partners;
        for (int nb : interaction.neighbors(logical)) {
            if (layout[nb] >= 0) partners.push_back(layout[nb]);
        }

        std::vector<const int*> partner_rows;
        for (int partner : partners) {
            partner_rows.push_back(backend.distance_row(partner));
        }

        int best = -1;
        double best_score = -std::numeric_limits<double>::infinity();
        for (int p = 0; p < np; ++p) {
            if (used[p]) continue;
            double score;
            if (partners.empty()) {
                // Seed: well-connected central qubit (lower total
                // distance to the rest of the device).
                score = 1000.0 * topology.degree(p) +
                        static_cast<double>(-backend.total_distance(p)) /
                            np;
            } else {
                long long dist = 0;
                for (const int* row : partner_rows) {
                    const int d = row[p];
                    dist += d < 0 ? np : d;
                }
                score = -static_cast<double>(dist) * 1000.0 +
                        topology.degree(p);
            }
            // Calibration-aware tie-break: prefer lower readout error.
            score -= backend.calibration().qubit(p).readout_error;
            if (score > best_score) {
                best_score = score;
                best = p;
            }
        }
        CAQR_CHECK(best >= 0, "ran out of physical qubits");
        layout[logical] = best;
        used[best] = true;
    }
    return layout;
}

bool
is_valid_layout(const Layout& layout, const circuit::Circuit& circuit,
                const arch::Backend& backend)
{
    if (static_cast<int>(layout.size()) != circuit.num_qubits()) {
        return false;
    }
    std::vector<bool> used(static_cast<std::size_t>(backend.num_qubits()),
                           false);
    for (int p : layout) {
        if (p < 0 || p >= backend.num_qubits() || used[p]) return false;
        used[p] = true;
    }
    return true;
}

}  // namespace caqr::transpile
