/// Tests for the OpenQASM 2.0 lexer/parser/printer, including the
/// dynamic-circuit `if (c[k] == v)` extension and round-trip fidelity.
#include <gtest/gtest.h>

#include "apps/benchmarks.h"
#include "circuit/circuit.h"
#include "qasm/lexer.h"
#include "qasm/parser.h"
#include "qasm/printer.h"
#include "util/rng.h"

namespace caqr {
namespace {

using circuit::Circuit;
using circuit::GateKind;

TEST(Lexer, BasicTokens)
{
    std::string error;
    const auto tokens = qasm::tokenize("qreg q[5]; // comment\nh q[0];",
                                       &error);
    ASSERT_FALSE(tokens.empty());
    EXPECT_EQ(tokens[0].text, "qreg");
    EXPECT_EQ(tokens[1].text, "q");
    EXPECT_EQ(tokens[2].kind, qasm::TokenKind::kLBracket);
    EXPECT_EQ(tokens[3].number, 5.0);
    EXPECT_EQ(tokens.back().kind, qasm::TokenKind::kEnd);
}

TEST(Lexer, ArrowAndComparison)
{
    std::string error;
    const auto tokens = qasm::tokenize("-> ==", &error);
    ASSERT_GE(tokens.size(), 3u);
    EXPECT_EQ(tokens[0].kind, qasm::TokenKind::kArrow);
    EXPECT_EQ(tokens[1].kind, qasm::TokenKind::kEqualEqual);
}

TEST(Lexer, ScientificNumbers)
{
    std::string error;
    const auto tokens = qasm::tokenize("1.5e-3", &error);
    ASSERT_GE(tokens.size(), 2u);
    EXPECT_DOUBLE_EQ(tokens[0].number, 1.5e-3);
}

TEST(Lexer, ReportsBadCharacter)
{
    std::string error;
    const auto tokens = qasm::tokenize("h q[0]; @", &error);
    EXPECT_TRUE(tokens.empty());
    EXPECT_NE(error.find("unexpected character"), std::string::npos);
}

TEST(Parser, MinimalProgram)
{
    const auto result = qasm::parse(
        "OPENQASM 2.0;\n"
        "include \"qelib1.inc\";\n"
        "qreg q[2];\n"
        "creg c[2];\n"
        "h q[0];\n"
        "cx q[0],q[1];\n"
        "measure q[0] -> c[0];\n");
    ASSERT_TRUE(result.ok()) << result.error;
    const auto& c = *result.circuit;
    EXPECT_EQ(c.num_qubits(), 2);
    EXPECT_EQ(c.num_clbits(), 2);
    ASSERT_EQ(c.size(), 3u);
    EXPECT_EQ(c.at(1).kind, GateKind::kCx);
    EXPECT_EQ(c.at(2).clbit, 0);
}

TEST(Parser, ParameterExpressions)
{
    const auto result = qasm::parse(
        "qreg q[1]; rz(pi/2) q[0]; rx(-pi) q[0]; ry(2*pi + 0.5) q[0];\n"
        "u(0.1, 0.2, 0.3) q[0];\n");
    ASSERT_TRUE(result.ok()) << result.error;
    const auto& c = *result.circuit;
    EXPECT_NEAR(c.at(0).params[0], 1.5707963, 1e-6);
    EXPECT_NEAR(c.at(1).params[0], -3.1415926, 1e-6);
    EXPECT_NEAR(c.at(2).params[0], 6.7831853, 1e-6);
    EXPECT_DOUBLE_EQ(c.at(3).params[1], 0.2);
}

TEST(Parser, WholeRegisterBroadcast)
{
    const auto result = qasm::parse("qreg q[3]; h q;");
    ASSERT_TRUE(result.ok()) << result.error;
    EXPECT_EQ(result.circuit->size(), 3u);
}

TEST(Parser, MeasureBroadcast)
{
    const auto result =
        qasm::parse("qreg q[3]; creg c[3]; measure q -> c;");
    ASSERT_TRUE(result.ok()) << result.error;
    EXPECT_EQ(result.circuit->measure_count(), 3);
}

TEST(Parser, MultipleRegistersFlatten)
{
    const auto result =
        qasm::parse("qreg a[2]; qreg b[2]; cx a[1],b[0];");
    ASSERT_TRUE(result.ok()) << result.error;
    EXPECT_EQ(result.circuit->num_qubits(), 4);
    EXPECT_EQ(result.circuit->at(0).qubits, (std::vector<int>{1, 2}));
}

TEST(Parser, ConditionExtension)
{
    const auto result = qasm::parse(
        "qreg q[2]; creg c[2]; measure q[0] -> c[0];\n"
        "if (c[0] == 1) x q[1];\n");
    ASSERT_TRUE(result.ok()) << result.error;
    const auto& instr = result.circuit->at(1);
    EXPECT_TRUE(instr.has_condition());
    EXPECT_EQ(instr.condition_bit, 0);
    EXPECT_EQ(instr.condition_value, 1);
}

TEST(Parser, SingleBitRegisterCondition)
{
    const auto result = qasm::parse(
        "qreg q[1]; creg flag[1]; measure q[0] -> flag[0];\n"
        "if (flag == 1) x q[0];\n");
    ASSERT_TRUE(result.ok()) << result.error;
    EXPECT_TRUE(result.circuit->at(1).has_condition());
}

TEST(Parser, ResetAndBarrier)
{
    const auto result =
        qasm::parse("qreg q[2]; reset q[0]; barrier q; barrier;");
    ASSERT_TRUE(result.ok()) << result.error;
    EXPECT_EQ(result.circuit->at(0).kind, GateKind::kReset);
    EXPECT_EQ(result.circuit->at(1).kind, GateKind::kBarrier);
    EXPECT_EQ(result.circuit->at(2).kind, GateKind::kBarrier);
}

TEST(Parser, ErrorsAreReported)
{
    EXPECT_FALSE(qasm::parse("qreg q[2]; h q[5];").ok());
    EXPECT_FALSE(qasm::parse("h q[0];").ok());  // unknown register
    EXPECT_FALSE(qasm::parse("qreg q[2]; bogus q[0];").ok());
    EXPECT_FALSE(qasm::parse("qreg q[2]; cx q[0];").ok());  // arity
    EXPECT_FALSE(qasm::parse("qreg q[0];").ok());  // empty register
    EXPECT_FALSE(qasm::parse("qreg q[2]; qreg q[2];").ok());  // dup
    EXPECT_FALSE(qasm::parse("qreg q[1]; rz() q[0];").ok());  // params
}

TEST(Parser, LineNumbersInErrors)
{
    const auto result = qasm::parse("qreg q[2];\nh q[9];\n");
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.error.find("line 2"), std::string::npos);
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
    const auto result = qasm::parse(qasm::to_qasm(original));
    ASSERT_TRUE(result.ok()) << result.error;
    ASSERT_EQ(result.circuit->size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
        EXPECT_EQ(result.circuit->at(i).kind, original.at(i).kind);
        EXPECT_EQ(result.circuit->at(i).qubits, original.at(i).qubits);
        EXPECT_EQ(result.circuit->at(i).clbit, original.at(i).clbit);
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
    const auto result = qasm::parse(qasm::to_qasm(original));
    ASSERT_TRUE(result.ok()) << result.error;
    ASSERT_EQ(result.circuit->size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
        const auto& a = original.at(i);
        const auto& b = result.circuit->at(i);
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
    const auto compliant = qasm::parse(
        "qreg q[2]; creg c0[1]; creg c1[1];\n"
        "measure q[0] -> c1[0];\n"
        "if (c1 == 1) x q[1];\n");
    ASSERT_TRUE(compliant.ok()) << compliant.error;
    const auto legacy = qasm::parse(
        "qreg q[2]; creg c[2];\n"
        "measure q[0] -> c[1];\n"
        "if (c[1] == 1) x q[1];\n");
    ASSERT_TRUE(legacy.ok()) << legacy.error;
    for (const auto* result : {&compliant, &legacy}) {
        const auto& instr = result->circuit->at(1);
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
    const auto result = qasm::parse(qasm::to_qasm(original));
    ASSERT_TRUE(result.ok()) << result.error;
    ASSERT_EQ(result.circuit->size(), original.size());
    EXPECT_EQ(result.circuit->num_clbits(), original.num_clbits());
    for (std::size_t i = 0; i < original.size(); ++i) {
        const auto& a = original.at(i);
        const auto& b = result.circuit->at(i);
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
    const auto reparsed = qasm::parse(first);
    ASSERT_TRUE(reparsed.ok()) << reparsed.error;
    EXPECT_EQ(qasm::to_qasm(*reparsed.circuit), first);
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
    const auto parsed = qasm::parse(first);
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    ASSERT_EQ(parsed.circuit->size(), c.size());
    EXPECT_EQ(parsed.circuit->at(2).kind, GateKind::kBarrier);
    for (const std::size_t i : {0u, 1u, 3u, 4u}) {
        EXPECT_EQ(parsed.circuit->at(i).kind, c.at(i).kind) << i;
        EXPECT_EQ(parsed.circuit->at(i).qubits, c.at(i).qubits) << i;
        EXPECT_EQ(parsed.circuit->at(i).params, c.at(i).params) << i;
        EXPECT_EQ(parsed.circuit->at(i).clbit, c.at(i).clbit) << i;
    }
    EXPECT_EQ(qasm::to_qasm(*parsed.circuit), first);
}

TEST(ParseFile, MissingFileReportsError)
{
    const auto result = qasm::parse_file("/nonexistent/file.qasm");
    EXPECT_FALSE(result.ok());
    EXPECT_NE(result.error.find("/nonexistent/file.qasm"),
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
        const auto parsed = qasm::parse_file(path);
        ASSERT_TRUE(parsed.ok()) << path << ": " << parsed.error;
        const auto bench = apps::get_benchmark(name);
        ASSERT_EQ(parsed.circuit->size(), bench->circuit.size()) << name;
        for (std::size_t i = 0; i < bench->circuit.size(); ++i) {
            EXPECT_EQ(parsed.circuit->at(i).kind,
                      bench->circuit.at(i).kind);
            EXPECT_EQ(parsed.circuit->at(i).qubits,
                      bench->circuit.at(i).qubits);
        }
    }
}

}  // namespace
}  // namespace caqr
