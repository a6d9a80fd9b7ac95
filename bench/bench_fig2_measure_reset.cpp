/**
 * @file
 * Reproduces paper Fig 2: the duration of the built-in
 * "measurement + reset" pair versus CaQR's
 * "measurement + classically-controlled X" idiom.
 *
 * Paper numbers (IBM Mumbai): 33,179 dt -> 16,467 dt (~50% cut).
 */
#include <iostream>

#include "circuit/circuit.h"
#include "circuit/schedule.h"
#include "circuit/timing.h"
#include "util/table.h"

int
main()
{
    using namespace caqr;

    circuit::LogicalDurations model;

    circuit::Circuit builtin(1, 1);
    builtin.measure(0, 0);
    builtin.reset(0);
    const double builtin_dt = circuit::critical_path(builtin, model);

    circuit::Circuit conditional(1, 1);
    conditional.measure(0, 0);
    conditional.x_if(0, 0, 1);
    const double conditional_dt = circuit::critical_path(conditional, model);

    util::Table table({"reset idiom", "duration (dt)", "duration (us)",
                       "vs built-in"});
    table.set_title(
        "Figure 2: measurement + reset implementations "
        "(1 dt = 0.22 ns)");
    table.add_row({"(a) measure + built-in reset",
                   util::Table::fmt(builtin_dt, 0),
                   util::Table::fmt(
                       builtin_dt * circuit::kSecondsPerDt * 1e6, 2),
                   "1.00x"});
    table.add_row({"(b) measure + conditional X (CaQR)",
                   util::Table::fmt(conditional_dt, 0),
                   util::Table::fmt(
                       conditional_dt * circuit::kSecondsPerDt * 1e6, 2),
                   util::Table::fmt(conditional_dt / builtin_dt, 2) + "x"});
    table.print(std::cout);

    std::cout << "\npaper: 33,179 dt -> 16,467 dt (50.4% reduction); "
              << "measured reduction: "
              << util::Table::fmt(100.0 * (1.0 - conditional_dt /
                                                     builtin_dt),
                                  1)
              << "%\n";
    return 0;
}
