/// Tests for the OpenQASM 2.0 reader and printer, including the
/// dynamic-circuit `if (c[k] == v)` extension and round-trip fidelity.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "apps/benchmarks.h"
#include "circuit/circuit.h"
#include "qasm/parser.h"
#include "qasm/printer.h"
#include "qasm_oracle.h"
#include "util/rng.h"

namespace caqr {
namespace {

using circuit::Circuit;
using circuit::GateKind;

TEST(Parser, SkipsComments)
{
    const auto result = qasm::parse_circuit(
        "qreg q[5]; // comment h q[1];\nh q[0]; // trailing");
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    EXPECT_EQ(result->num_qubits(), 5);
    ASSERT_EQ(result->size(), 1u);
    EXPECT_EQ(result->at(0).qubits, (std::vector<int>{0}));
}

TEST(Parser, ReadsArrowAndComparison)
{
    const auto result = qasm::parse_circuit(
        "qreg q[1]; creg c[1]; measure q[0]->c[0]; if(c[0]==0) x q[0];");
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    ASSERT_EQ(result->size(), 2u);
    EXPECT_EQ(result->at(0).clbit, 0);
    EXPECT_EQ(result->at(1).condition_value, 0);
}

TEST(Parser, ScientificAngles)
{
    const auto result = qasm::parse_circuit("qreg q[1]; rz(1.5e-3) q[0];");
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    EXPECT_EQ(result->at(0).params[0], 1.5e-3);
}

TEST(Parser, ReportsBadCharacter)
{
    const auto result = qasm::parse_circuit("qreg q[1];\nh q[0]; @");
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), util::StatusCode::kParseError);
    EXPECT_NE(result.status().message().find("line 2: unexpected character"),
              std::string::npos)
        << result.status().to_string();
}

TEST(Parser, MinimalProgram)
{
    const auto result = qasm::parse_circuit(
        "OPENQASM 2.0;\n"
        "include \"qelib1.inc\";\n"
        "qreg q[2];\n"
        "creg c[2];\n"
        "h q[0];\n"
        "cx q[0],q[1];\n"
        "measure q[0] -> c[0];\n");
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    const auto& c = *result;
    EXPECT_EQ(c.num_qubits(), 2);
    EXPECT_EQ(c.num_clbits(), 2);
    ASSERT_EQ(c.size(), 3u);
    EXPECT_EQ(c.at(1).kind, GateKind::kCx);
    EXPECT_EQ(c.at(2).clbit, 0);
}

TEST(Parser, ParameterExpressions)
{
    const auto result = qasm::parse_circuit(
        "qreg q[1]; rz(pi/2) q[0]; rx(-pi) q[0]; ry(2*pi + 0.5) q[0];\n"
        "u(0.1, 0.2, 0.3) q[0];\n");
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    const auto& c = *result;
    EXPECT_NEAR(c.at(0).params[0], 1.5707963, 1e-6);
    EXPECT_NEAR(c.at(1).params[0], -3.1415926, 1e-6);
    EXPECT_NEAR(c.at(2).params[0], 6.7831853, 1e-6);
    EXPECT_DOUBLE_EQ(c.at(3).params[1], 0.2);
}

TEST(Parser, WholeRegisterBroadcast)
{
    const auto result = qasm::parse_circuit("qreg q[3]; h q;");
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    EXPECT_EQ(result->size(), 3u);
}

TEST(Parser, MeasureBroadcast)
{
    const auto result =
        qasm::parse_circuit("qreg q[3]; creg c[3]; measure q -> c;");
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    EXPECT_EQ(result->measure_count(), 3);
}

TEST(Parser, MultipleRegistersFlatten)
{
    const auto result =
        qasm::parse_circuit("qreg a[2]; qreg b[2]; cx a[1],b[0];");
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    EXPECT_EQ(result->num_qubits(), 4);
    EXPECT_EQ(result->at(0).qubits, (std::vector<int>{1, 2}));
}

TEST(Parser, ConditionExtension)
{
    const auto result = qasm::parse_circuit(
        "qreg q[2]; creg c[2]; measure q[0] -> c[0];\n"
        "if (c[0] == 1) x q[1];\n");
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    const auto& instr = result->at(1);
    EXPECT_TRUE(instr.has_condition());
    EXPECT_EQ(instr.condition_bit, 0);
    EXPECT_EQ(instr.condition_value, 1);
}

TEST(Parser, SingleBitRegisterCondition)
{
    const auto result = qasm::parse_circuit(
        "qreg q[1]; creg flag[1]; measure q[0] -> flag[0];\n"
        "if (flag == 1) x q[0];\n");
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    EXPECT_TRUE(result->at(1).has_condition());
}

TEST(Parser, ResetAndBarrier)
{
    const auto result =
        qasm::parse_circuit("qreg q[2]; reset q[0]; barrier q; barrier;");
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    EXPECT_EQ(result->at(0).kind, GateKind::kReset);
    EXPECT_EQ(result->at(1).kind, GateKind::kBarrier);
    EXPECT_EQ(result->at(2).kind, GateKind::kBarrier);
}

TEST(Parser, ErrorsAreReported)
{
    EXPECT_FALSE(qasm::parse_circuit("qreg q[2]; h q[5];").ok());
    EXPECT_FALSE(qasm::parse_circuit("h q[0];").ok());  // unknown register
    EXPECT_FALSE(qasm::parse_circuit("qreg q[2]; bogus q[0];").ok());
    EXPECT_FALSE(qasm::parse_circuit("qreg q[2]; cx q[0];").ok());  // arity
    EXPECT_FALSE(qasm::parse_circuit("qreg q[0];").ok());  // empty register
    EXPECT_FALSE(qasm::parse_circuit("qreg q[2]; qreg q[2];").ok());  // dup
    EXPECT_FALSE(qasm::parse_circuit("qreg q[1]; rz() q[0];").ok());  // params
}

TEST(Parser, LineNumbersInErrors)
{
    const auto result = qasm::parse_circuit("qreg q[2];\nh q[9];\n");
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.status().message().find("line 2"), std::string::npos);
}

TEST(Printer, EmitsHeaderAndGates)
{
    Circuit c(2, 2);
    c.h(0);
    c.rzz(0.25, 0, 1);
    c.measure(1, 0);
    const auto text = qasm::to_qasm(c);
    EXPECT_NE(text.find("OPENQASM 2.0;"), std::string::npos);
    EXPECT_NE(text.find("qreg q[2];"), std::string::npos);
    EXPECT_NE(text.find("rzz(0.25) q[0],q[1];"), std::string::npos);
    EXPECT_NE(text.find("measure q[1] -> c[0];"), std::string::npos);
}

TEST(Printer, RoundTripBv)
{
    const auto original = apps::bv_circuit(6);
    const auto result = qasm::parse_circuit(qasm::to_qasm(original));
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    ASSERT_EQ(result->size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
        EXPECT_EQ(result->at(i).kind, original.at(i).kind);
        EXPECT_EQ(result->at(i).qubits, original.at(i).qubits);
        EXPECT_EQ(result->at(i).clbit, original.at(i).clbit);
    }
}

/// Round-trip property over random circuits with every gate kind,
/// conditions, and parameters.
class QasmRoundTrip : public ::testing::TestWithParam<int>
{
};

TEST_P(QasmRoundTrip, PreservesInstructionStream)
{
    util::Rng rng(3000 + GetParam());
    const int nq = 2 + GetParam() % 5;
    Circuit original(nq, nq);
    for (int step = 0; step < 30; ++step) {
        const int q = rng.next_int(0, nq - 1);
        int other = rng.next_int(0, nq - 1);
        if (other == q) other = (q + 1) % nq;
        switch (rng.next_int(0, 7)) {
          case 0: original.h(q); break;
          case 1: original.rz(rng.next_double() * 6.28, q); break;
          case 2: original.cx(q, other); break;
          case 3: original.rzz(rng.next_double(), q, other); break;
          case 4: original.measure(q, q); break;
          case 5: original.x_if(q, other, rng.next_int(0, 1)); break;
          case 6: original.barrier(); break;
          case 7: original.sdg(q); break;
        }
    }
    const auto result = qasm::parse_circuit(qasm::to_qasm(original));
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    ASSERT_EQ(result->size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
        const auto& a = original.at(i);
        const auto& b = result->at(i);
        EXPECT_EQ(a.kind, b.kind);
        EXPECT_EQ(a.qubits, b.qubits);
        EXPECT_EQ(a.clbit, b.clbit);
        EXPECT_EQ(a.condition_bit, b.condition_bit);
        EXPECT_EQ(a.condition_value, b.condition_value);
        ASSERT_EQ(a.params.size(), b.params.size());
        for (std::size_t p = 0; p < a.params.size(); ++p) {
            EXPECT_NEAR(a.params[p], b.params[p], 1e-12);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(RandomCircuits, QasmRoundTrip,
                         ::testing::Range(0, 20));

TEST(Printer, ConditionedOutputIsSpecCompliant)
{
    // OpenQASM 2.0 only allows whole-register conditions, so a dynamic
    // circuit must come out with per-bit 1-bit cregs and
    // `if (ck == v)` — never the illegal `if (c[k] == v)`.
    Circuit c(2, 2);
    c.h(0);
    c.measure(0, 0);
    c.x_if(1, 0, 1);
    c.measure(1, 1);
    const auto text = qasm::to_qasm(c);
    EXPECT_EQ(text,
              "OPENQASM 2.0;\n"
              "include \"qelib1.inc\";\n"
              "qreg q[2];\n"
              "creg c0[1];\n"
              "creg c1[1];\n"
              "h q[0];\n"
              "measure q[0] -> c0[0];\n"
              "if (c0 == 1) x q[1];\n"
              "measure q[1] -> c1[0];\n");
    EXPECT_EQ(text.find("if (c["), std::string::npos);
}

TEST(Printer, UnconditionedCircuitKeepsFlatCreg)
{
    Circuit c(1, 2);
    c.h(0);
    c.measure(0, 1);
    const auto text = qasm::to_qasm(c);
    EXPECT_NE(text.find("creg c[2];"), std::string::npos);
    EXPECT_NE(text.find("measure q[0] -> c[1];"), std::string::npos);
}

TEST(Parser, AcceptsBothConditionForms)
{
    // The register-level compliant form and the bit-indexed legacy
    // extension must parse to the identical instruction.
    const auto compliant = qasm::parse_circuit(
        "qreg q[2]; creg c0[1]; creg c1[1];\n"
        "measure q[0] -> c1[0];\n"
        "if (c1 == 1) x q[1];\n");
    ASSERT_TRUE(compliant.ok()) << compliant.status().to_string();
    const auto legacy = qasm::parse_circuit(
        "qreg q[2]; creg c[2];\n"
        "measure q[0] -> c[1];\n"
        "if (c[1] == 1) x q[1];\n");
    ASSERT_TRUE(legacy.ok()) << legacy.status().to_string();
    for (const auto* result : {&compliant, &legacy}) {
        const auto& instr = (*result)->at(1);
        EXPECT_EQ(instr.kind, GateKind::kX);
        EXPECT_TRUE(instr.has_condition());
        EXPECT_EQ(instr.condition_bit, 1);
        EXPECT_EQ(instr.condition_value, 1);
    }
}

/// Builds the dynamic-primitive showcase circuit: mid-circuit
/// measurement, reset, and conditioned gates on several bits.
Circuit
dynamic_showcase()
{
    Circuit c(3, 3);
    c.h(0);
    c.measure(0, 0);
    c.x_if(0, 0, 1);
    c.reset(1);
    c.cx(0, 1);
    c.measure(1, 1);
    c.z_if(2, 1, 0);
    c.barrier();
    c.measure(2, 2);
    return c;
}

TEST(Printer, DynamicRoundTripPreservesInstructions)
{
    const auto original = dynamic_showcase();
    const auto result = qasm::parse_circuit(qasm::to_qasm(original));
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    ASSERT_EQ(result->size(), original.size());
    EXPECT_EQ(result->num_clbits(), original.num_clbits());
    for (std::size_t i = 0; i < original.size(); ++i) {
        const auto& a = original.at(i);
        const auto& b = result->at(i);
        EXPECT_EQ(a.kind, b.kind);
        EXPECT_EQ(a.qubits, b.qubits);
        EXPECT_EQ(a.clbit, b.clbit);
        EXPECT_EQ(a.condition_bit, b.condition_bit);
        EXPECT_EQ(a.condition_value, b.condition_value);
    }
}

TEST(Printer, DynamicPrintParsePrintIsAFixpoint)
{
    const auto first = qasm::to_qasm(dynamic_showcase());
    const auto reparsed = qasm::parse_circuit(first);
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().to_string();
    EXPECT_EQ(qasm::to_qasm(*reparsed), first);
}

TEST(Printer, WideBarrierRoundTripsAsAGlobalBarrier)
{
    // A barrier with 27 explicit operands spills them to the heap; the
    // printer emits the IR's global barrier, and the round trip keeps
    // every other instruction.
    circuit::Circuit c(27, 1);
    c.h(0);
    c.cx(0, 26);
    circuit::Instruction barrier;
    barrier.kind = GateKind::kBarrier;
    for (int q = 0; q < 27; ++q) barrier.qubits.push_back(q);
    c.append(barrier);
    c.u(0.25, 0.5, 0.75, 13);
    c.measure(26, 0);
    ASSERT_FALSE(c.at(2).qubits.is_inline());

    const auto first = qasm::to_qasm(c);
    EXPECT_NE(first.find("barrier q;\n"), std::string::npos);
    const auto parsed = qasm::parse_circuit(first);
    ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
    ASSERT_EQ(parsed->size(), c.size());
    EXPECT_EQ(parsed->at(2).kind, GateKind::kBarrier);
    for (const std::size_t i : {0u, 1u, 3u, 4u}) {
        EXPECT_EQ(parsed->at(i).kind, c.at(i).kind) << i;
        EXPECT_EQ(parsed->at(i).qubits, c.at(i).qubits) << i;
        EXPECT_EQ(parsed->at(i).params, c.at(i).params) << i;
        EXPECT_EQ(parsed->at(i).clbit, c.at(i).clbit) << i;
    }
    EXPECT_EQ(qasm::to_qasm(*parsed), first);
}

TEST(ParseFile, MissingFileReportsError)
{
    const auto result = qasm::parse_circuit_file("/nonexistent/file.qasm");
    EXPECT_FALSE(result.ok());
    EXPECT_NE(result.status().message().find("/nonexistent/file.qasm"),
              std::string::npos);
}

TEST(ParseFile, EnvelopeDistinguishesFailureKinds)
{
    const auto missing = qasm::parse_circuit_file("/nonexistent/file.qasm");
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.status().code(), util::StatusCode::kNotFound);

    // A directory opens but is not a readable QASM file — this must be
    // an I/O error, not a silent empty parse.
    const auto directory = qasm::parse_circuit_file("/tmp");
    ASSERT_FALSE(directory.ok());
    EXPECT_EQ(directory.status().code(), util::StatusCode::kIoError);

    // So is an empty file; a file under a regular file is missing.
    const auto empty = std::filesystem::path(::testing::TempDir()) /
                       "caqr_empty_input.qasm";
    std::ofstream(empty).close();
    const auto read_empty = qasm::read_file(empty.string());
    ASSERT_FALSE(read_empty.ok());
    EXPECT_EQ(read_empty.status().code(), util::StatusCode::kIoError);
    const auto under_file = qasm::read_file(empty.string() + "/x.qasm");
    ASSERT_FALSE(under_file.ok());
    EXPECT_EQ(under_file.status().code(), util::StatusCode::kNotFound);
    std::filesystem::remove(empty);

    const auto malformed = qasm::parse_circuit("OPENQASM 2.0; bogus;");
    ASSERT_FALSE(malformed.ok());
    EXPECT_EQ(malformed.status().code(), util::StatusCode::kParseError);

    const auto good = qasm::parse_circuit(
        "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nh q[0];\ncx q[0], "
        "q[1];\nmeasure q[0] -> c[0];\n");
    ASSERT_TRUE(good.ok()) << good.status().to_string();
    EXPECT_EQ(good->num_qubits(), 2);
    EXPECT_EQ(good->measure_count(), 1);
}

TEST(ParseFile, CorpusFilesMatchGenerators)
{
    // The shipped circuits/ corpus must parse back into circuits
    // identical to the registry generators.
    for (const auto& name : apps::regular_benchmark_names()) {
        const std::string path =
            std::string(CAQR_CIRCUITS_DIR) + "/" + name + ".qasm";
        const auto parsed = qasm::parse_circuit_file(path);
        ASSERT_TRUE(parsed.ok()) << path << ": " << parsed.status().to_string();
        const auto bench = apps::get_benchmark(name);
        ASSERT_EQ(parsed->size(), bench->circuit.size()) << name;
        for (std::size_t i = 0; i < bench->circuit.size(); ++i) {
            EXPECT_EQ(parsed->at(i).kind,
                      bench->circuit.at(i).kind);
            EXPECT_EQ(parsed->at(i).qubits,
                      bench->circuit.at(i).qubits);
        }
    }
}

/// The failure of @p source: a kParseError whose message names its
/// line and contains @p what.
void
expect_parse_error(const std::string& source, const std::string& line,
                   const std::string& what)
{
    const auto result = qasm::parse_circuit(source);
    ASSERT_FALSE(result.ok()) << source;
    EXPECT_EQ(result.status().code(), util::StatusCode::kParseError);
    const std::string& message = result.status().message();
    EXPECT_EQ(message.rfind("line " + line + ": ", 0), 0u) << message;
    EXPECT_NE(message.find(what), std::string::npos) << message;
}

/// A multi-qubit gate's operands must be distinct qubits: a repeat is
/// a line-numbered parse error, never an abort in `Circuit::append` or
/// a panic in a later pass.
TEST(Parser, RepeatedOperandsAreParseErrors)
{
    const std::string head = "qreg q[3];\nqreg r[3];\n";
    for (const char* gate :
         {"cx q[0],q[0];", "swap q[1], q[1];", "rzz(0.5) q[2],q[2];",
          "cx q,q;", "cx q[0],q;", "ccx q[0],q[1],q[0];",
          "if (c[0] == 1) cz q[1],q[1];"}) {
        SCOPED_TRACE(gate);
        expect_parse_error(head + "creg c[1];\n" + gate + "\n", "4",
                           "needs distinct qubit operands");
    }
    // Distinct registers broadcast pairwise.
    const auto ok = qasm::parse_circuit(head + "cx q,r; ccx q[0],r,q[2];");
    ASSERT_TRUE(ok.ok()) << ok.status().to_string();
    EXPECT_EQ(ok->size(), 6u);
    EXPECT_EQ(ok->at(4).qubits, (std::vector<int>{0, 4, 2}));
}

TEST(Parser, FractionalIndexIsAParseError)
{
    expect_parse_error("qreg q[2];\nh q[1.5];\n", "2",
                       "register index must be an integer literal in int "
                       "range, got '1.5'");
}

TEST(Parser, FractionalMeasureOperandsAreParseErrors)
{
    expect_parse_error("qreg q[2]; creg c[2];\nmeasure q[1.9] -> c[0];",
                       "2", "got '1.9'");
    expect_parse_error("qreg q[2]; creg c[2];\nmeasure q[1] -> c[0.2];",
                       "2", "got '0.2'");
}

TEST(Parser, FractionalConditionValueIsAParseError)
{
    expect_parse_error(
        "qreg q[1]; creg c[1];\nif (c[0] == 1.7) x q[0];", "2",
        "condition value must be an integer literal in int range, got "
        "'1.7'");
}

TEST(Parser, RegisterSizeOutsideIntIsAParseError)
{
    expect_parse_error("qreg q[1e10];", "1",
                       "register size must be an integer literal in int "
                       "range, got '1e10'");
    expect_parse_error("qreg q[99999999999];", "1", "got '99999999999'");
    expect_parse_error("qreg q[16384];\nqreg r[1];", "2",
                       "register 'r' takes the program past 16384 qubits");
}

/// The size caps reject a program at the declaration or statement that
/// crosses them, before anything for it is allocated: a 20-byte
/// program cannot ask for millions of qubits or instructions.
TEST(Parser, ProgramsPastTheSizeCapsAreParseErrors)
{
    static_assert(qasm::kMaxBits == 16384);
    static_assert(qasm::kMaxInstructions == 262144);
    for (const char* source :
         {"qreg q[2000000]; h q;", "qreg q[2147483647]; h q;"}) {
        double best_ms = 1e9;
        for (int run = 0; run < 5; ++run) {
            const auto start = std::chrono::steady_clock::now();
            const auto result = qasm::parse_circuit(source);
            best_ms = std::min(
                best_ms, std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count());
            ASSERT_FALSE(result.ok()) << source;
            EXPECT_EQ(result.status().code(), util::StatusCode::kParseError);
            EXPECT_EQ(result.status().message(),
                      "line 1: register 'q' takes the program past 16384 "
                      "qubits");
        }
        EXPECT_LT(best_ms, 1.0) << source;
    }
    expect_parse_error("creg c[8];\ncreg d[16377];", "2",
                       "register 'd' takes the program past 16384 clbits");

    // 16 broadcasts over 16384 qubits reach the instruction cap
    // exactly; any further statement crosses it.
    std::string at_cap = "qreg q[16384];\ncreg c[1];\n";
    for (int i = 0; i < 16; ++i) at_cap += "h q;\n";
    const auto full = qasm::parse_circuit(at_cap);
    ASSERT_TRUE(full.ok()) << full.status().to_string();
    EXPECT_EQ(full->num_qubits(), 16384);
    EXPECT_EQ(full->size(), 262144u);
    for (const char* statement :
         {"x q[0];", "h q;", "reset q[0];", "barrier q;",
          "measure q[0] -> c[0];", "if (c[0] == 1) x q[0];"}) {
        expect_parse_error(at_cap + statement, "19",
                           "statement takes the program past 262144 "
                           "instructions");
    }
}

TEST(Parser, MalformedAnglesAreParseErrors)
{
    for (const char* angle : {"1.2.3", "1e", "2e-", "1e400"}) {
        expect_parse_error(std::string("qreg q[1];\nrz(") + angle +
                               ") q[0];",
                           "2",
                           std::string("real literal '") + angle +
                               "' is malformed or out of range");
    }
}

// ---------------------------------------------------------------------
// Differential test: the one-pass reader against the reference
// tokenize-then-parse pipeline (tests/qasm_oracle.h).
// ---------------------------------------------------------------------

/// Instruction streams, parameter tables and conditions are equal;
/// angles bit for bit.
void
expect_same_circuit(const Circuit& a, const Circuit& b)
{
    ASSERT_EQ(a.num_qubits(), b.num_qubits());
    ASSERT_EQ(a.num_clbits(), b.num_clbits());
    ASSERT_EQ(a.num_params(), b.num_params());
    for (int p = 0; p < a.num_params(); ++p) {
        EXPECT_EQ(a.params()[p].name, b.params()[p].name);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a.params()[p].value),
                  std::bit_cast<std::uint64_t>(b.params()[p].value));
    }
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        const auto& x = a.at(i);
        const auto& y = b.at(i);
        ASSERT_EQ(x.kind, y.kind) << i;
        ASSERT_EQ(x.qubits, y.qubits) << i;
        ASSERT_EQ(x.clbit, y.clbit) << i;
        ASSERT_EQ(x.condition_bit, y.condition_bit) << i;
        ASSERT_EQ(x.condition_value, y.condition_value) << i;
        ASSERT_EQ(x.param_ref, y.param_ref) << i;
        ASSERT_EQ(x.params.size(), y.params.size()) << i;
        for (std::size_t k = 0; k < x.params.size(); ++k) {
            ASSERT_EQ(std::bit_cast<std::uint64_t>(x.params[k]),
                      std::bit_cast<std::uint64_t>(y.params[k]))
                << i << ": " << x.params[k] << " vs " << y.params[k];
        }
    }
}

/// Seeded valid programs over the reader's whole subset: several
/// registers, broadcast, `pi` expressions, scientific and bare-point
/// literals, named parameters, both `if` forms, reset, barrier,
/// comments, CRLF line endings and irregular spacing.
class ProgramGenerator
{
  public:
    explicit ProgramGenerator(std::uint64_t seed) : rng_(seed) {}

    std::string
    program()
    {
        out_.clear();
        nl_ = rng_.next_bool(0.3) ? "\r\n" : "\n";
        qregs_.clear();
        cregs_.clear();
        if (rng_.next_bool(0.8)) line("OPENQASM 2.0;");
        if (rng_.next_bool(0.5)) line("include \"qelib1.inc\";");
        const char* qnames[] = {"q", "anc", "r_1"};
        const char* cnames[] = {"c", "flag", "m2"};
        const int nq = rng_.next_int(1, 3);
        const int nc = rng_.next_int(1, 3);
        for (int r = 0; r < nq; ++r) {
            declare("qreg", qnames[r], rng_.next_int(1, 5), qregs_);
        }
        for (int r = 0; r < nc; ++r) {
            // The second classical register has one bit, for the
            // whole-register condition form.
            declare("creg", cnames[r], r == 1 ? 1 : rng_.next_int(1, 4),
                    cregs_);
        }
        const int statements = rng_.next_int(5, 30);
        for (int s = 0; s < statements; ++s) statement();
        return out_;
    }

  private:
    struct Reg
    {
        std::string name;
        int size = 0;
        int offset = 0;
    };

    util::Rng rng_;
    std::string out_;
    std::string nl_;
    std::vector<Reg> qregs_;
    std::vector<Reg> cregs_;

    void
    line(const std::string& text)
    {
        out_ += text;
        if (rng_.next_bool(0.1)) out_ += " // note: h q[0]; @ \"";
        out_ += nl_;
    }

    std::string
    space()
    {
        switch (rng_.next_int(0, 5)) {
          case 0: return "";
          case 1: return "  ";
          case 2: return "\t";
          default: return " ";
        }
    }

    void
    declare(const char* kind, const char* name, int size,
            std::vector<Reg>& regs)
    {
        const int offset =
            regs.empty() ? 0 : regs.back().offset + regs.back().size;
        regs.push_back({name, size, offset});
        line(std::string(kind) + " " + name + space() + "[" + space() +
             std::to_string(size) + "]" + space() + ";");
    }

    const Reg&
    pick(const std::vector<Reg>& regs)
    {
        return regs[rng_.next_below(regs.size())];
    }

    std::string
    bit(const Reg& reg, int index)
    {
        return reg.name + space() + "[" + std::to_string(index) + "]";
    }

    std::string
    indexed(const Reg& reg)
    {
        return bit(reg, rng_.next_int(0, reg.size - 1));
    }

    /// A literal in one of the spellings the reader accepts.
    std::string
    literal()
    {
        char text[64];
        const double value = rng_.next_double() * 8.0;
        switch (rng_.next_int(0, 6)) {
          case 0: return std::to_string(rng_.next_int(1, 9));
          case 1: std::snprintf(text, sizeof text, "%.17g", value); break;
          case 2: std::snprintf(text, sizeof text, "%.3f", value); break;
          case 3: std::snprintf(text, sizeof text, "%.6e", value); break;
          case 4: std::snprintf(text, sizeof text, "%.4E", value); break;
          case 5:
            return "." + std::to_string(rng_.next_int(1, 999));
          default: return std::to_string(rng_.next_int(0, 9)) + ".";
        }
        return text;
    }

    std::string
    expression(int depth)
    {
        const int choice = depth > 2 ? rng_.next_int(0, 1)
                                     : rng_.next_int(0, 6);
        switch (choice) {
          case 0: return literal();
          case 1: return "pi";
          case 2: return "-" + space() + expression(depth + 1);
          case 3: return "(" + space() + expression(depth + 1) + ")";
          case 4:
            // Divisors are literals or pi, never zero.
            return expression(depth + 1) + space() + "/" + space() +
                   (rng_.next_bool(0.5) ? "pi" : std::to_string(
                                                     rng_.next_int(1, 9)));
          default: {
            const char* ops[] = {"+", "-", "*"};
            return expression(depth + 1) + space() +
                   ops[rng_.next_int(0, 2)] + space() +
                   expression(depth + 1);
          }
        }
    }

    std::string
    angle()
    {
        const char* names[] = {"theta", "beta1", "g_0"};
        return rng_.next_bool(0.2) ? names[rng_.next_int(0, 2)]
                                   : expression(0);
    }

    /// @p arity distinct indexed qubits; a lone operand is a whole
    /// register (broadcast) three times in ten. Empty when the
    /// registers hold fewer than @p arity qubits.
    std::string
    operands(int arity)
    {
        if (arity == 1 && rng_.next_bool(0.3)) return pick(qregs_).name;
        std::vector<std::pair<const Reg*, int>> free;
        for (const Reg& reg : qregs_) {
            for (int i = 0; i < reg.size; ++i) free.emplace_back(&reg, i);
        }
        if (free.size() < static_cast<std::size_t>(arity)) return "";
        std::string text;
        for (int k = 0; k < arity; ++k) {
            const std::size_t at = rng_.next_below(free.size());
            if (!text.empty()) text += "," + space();
            text += bit(*free[at].first, free[at].second);
            free.erase(free.begin() + static_cast<std::ptrdiff_t>(at));
        }
        return text;
    }

    /// Two-qubit broadcast over two registers: pairwise when their
    /// sizes match (`cx a,b;`), else one qubit against a register
    /// (`cx a[0],b;`).
    std::string
    register_pair()
    {
        const Reg& a = pick(qregs_);
        const Reg& b = pick(qregs_);
        if (&a == &b || b.size == 1) return "";
        return (a.size == b.size ? a.name : indexed(a)) + "," + space() +
               b.name;
    }

    void
    gate(const std::string& prefix)
    {
        const char* singles[] = {"h", "x", "y", "z", "s", "sdg", "t", "tdg"};
        const char* rotations[] = {"rx", "ry", "rz"};
        const char* pairs[] = {"cx", "cz", "swap"};
        std::string ops;
        switch (rng_.next_int(0, 6)) {
          case 0:
            ops = operands(1);
            line(prefix + singles[rng_.next_int(0, 7)] + " " + ops + ";");
            return;
          case 1:
            ops = operands(1);
            line(prefix + rotations[rng_.next_int(0, 2)] + "(" + space() +
                 angle() + space() + ")" + space() + ops + ";");
            return;
          case 2:
            ops = operands(1);
            line(prefix + "u(" + expression(0) + "," + space() +
                 expression(0) + "," + expression(0) + ") " + ops + ";");
            return;
          case 3:
            ops = rng_.next_bool(0.3) ? register_pair() : "";
            if (ops.empty()) ops = operands(2);
            if (ops.empty()) return;
            line(prefix + pairs[rng_.next_int(0, 2)] + " " + ops + ";");
            return;
          case 4:
            ops = operands(2);
            if (ops.empty()) return;
            line(prefix + "rzz(" + angle() + ")" + space() + ops + ";");
            return;
          case 5:
            ops = operands(3);
            if (ops.empty()) return;
            line(prefix + "ccx " + ops + ";");
            return;
          default:
            line(prefix + "reset " + indexed(pick(qregs_)) + ";");
            return;
        }
    }

    void
    statement()
    {
        switch (rng_.next_int(0, 9)) {
          case 0: {
            const Reg& q = pick(qregs_);
            const Reg& c = pick(cregs_);
            if (q.size == c.size && rng_.next_bool(0.5)) {
                line("measure " + q.name + space() + "->" + space() +
                     c.name + ";");
            } else {
                line("measure " + indexed(q) + " ->" + space() +
                     indexed(c) + ";");
            }
            return;
          }
          case 1:
            line("reset " + (rng_.next_bool(0.5) ? pick(qregs_).name
                                                 : indexed(pick(qregs_))) +
                 ";");
            return;
          case 2:
            line(rng_.next_bool(0.5)
                     ? "barrier;"
                     : "barrier " + pick(qregs_).name + "," + space() +
                           indexed(pick(qregs_)) + ";");
            return;
          case 3: {
            const Reg& c = pick(cregs_);
            const std::string value = std::to_string(rng_.next_int(0, 1));
            const std::string cond =
                c.size == 1 && rng_.next_bool(0.5)
                    ? c.name + space() + "==" + space() + value
                    : indexed(c) + space() + "==" + space() + value;
            gate("if" + space() + "(" + space() + cond + space() + ")" +
                 space());
            return;
          }
          case 4:
            out_ += "// comment ; qreg z[0];" + nl_;
            return;
          default:
            gate("");
            return;
        }
    }
};

/// A failure the reference pipeline cannot share: it misreads these
/// literals (`q[1.5]` as `q[1]`, `1.2.3` as 1.2, `q[1e10]` by an
/// undefined cast), aborts on repeated two-qubit operands and caps no
/// program's size.
bool
stricter_than_reference(const util::Status& status)
{
    const std::string& message = status.message();
    for (const char* rule :
         {"must be an integer literal", "is malformed or out of range",
          "needs distinct qubit operands", "takes the program past"}) {
        if (message.find(rule) != std::string::npos) return true;
    }
    return false;
}

TEST(QasmDifferential, SeededProgramsMatchTheReference)
{
    ProgramGenerator generator(0xC0FFEE);
    for (int i = 0; i < 2000; ++i) {
        const std::string source = generator.program();
        const auto reader = qasm::parse_circuit(source);
        ASSERT_TRUE(reader.ok()) << reader.status().to_string() << "\n"
                                 << source;
        const auto reference = qasm_oracle::parse(source);
        ASSERT_TRUE(reference.ok()) << reference.status().to_string();
        SCOPED_TRACE(source);
        expect_same_circuit(*reader, *reference);
        if (HasFatalFailure()) return;
    }
}

/// Byte mutations of seeded programs: where the reader accepts, the
/// reference accepts the same circuit; where the reader rejects, the
/// reference rejects too, unless the reader applied a rule the
/// reference lacks (those are covered by the dedicated tests above).
TEST(QasmDifferential, MutatedProgramsFailInBoth)
{
    ProgramGenerator generator(0xBADC0DE);
    util::Rng rng(17);
    const std::string alphabet = "q[]();,->=.0123456789eE+-*/ \n\"ap_@";
    int rejected = 0;
    int stricter = 0;
    for (int i = 0; i < 2000; ++i) {
        std::string source = generator.program();
        const int edits = rng.next_int(1, 2);
        for (int e = 0; e < edits; ++e) {
            const std::size_t at = rng.next_below(source.size());
            const char c = alphabet[rng.next_below(alphabet.size())];
            switch (rng.next_int(0, 2)) {
              case 0: source[at] = c; break;
              case 1: source.erase(at, 1); break;
              default: source.insert(at, 1, c); break;
            }
        }
        SCOPED_TRACE(source);
        const auto reader = qasm::parse_circuit(source);
        if (!reader.ok()) {
            ++rejected;
            ASSERT_EQ(reader.status().code(), util::StatusCode::kParseError);
            ASSERT_EQ(reader.status().message().rfind("line ", 0), 0u);
            if (stricter_than_reference(reader.status())) {
                ++stricter;
                continue;
            }
        }
        const auto reference = qasm_oracle::parse(source);
        ASSERT_EQ(reader.ok(), reference.ok())
            << (reader.ok() ? reference.status() : reader.status())
                   .to_string();
        if (reader.ok()) {
            expect_same_circuit(*reader, *reference);
            if (HasFatalFailure()) return;
        } else {
            EXPECT_EQ(reference.status().code(),
                      util::StatusCode::kParseError);
        }
    }
    // The mutations reach both the shared and the stricter rules.
    EXPECT_GT(rejected - stricter, 500);
    EXPECT_GT(stricter, 20);
}

TEST(QasmDifferential, CorpusMatchesTheReference)
{
    int files = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator(CAQR_CIRCUITS_DIR)) {
        if (entry.path().extension() != ".qasm") continue;
        SCOPED_TRACE(entry.path().string());
        const auto bytes = qasm::read_file(entry.path().string());
        ASSERT_TRUE(bytes.ok()) << bytes.status().to_string();
        const auto reader = qasm::parse_circuit(*bytes);
        const auto reference = qasm_oracle::parse(*bytes);
        ASSERT_TRUE(reader.ok()) << reader.status().to_string();
        ASSERT_TRUE(reference.ok()) << reference.status().to_string();
        expect_same_circuit(*reader, *reference);
        ++files;
    }
    EXPECT_GE(files, 8);
}

}  // namespace
}  // namespace caqr
