/**
 * @file
 * One-pass OpenQASM 2.0 reader producing the circuit IR.
 *
 * Supported subset (everything the benchmark suite and CaQR output
 * need):
 *   - `OPENQASM 2.0;` header, `include "...";` (accepted and ignored)
 *   - `qreg name[n];` / `creg name[n];` (multiple registers; flattened
 *     to dense indices in declaration order)
 *   - gate applications for the IR vocabulary (h, x, ..., cx, rzz, ...)
 *     with constant-folded parameter expressions (`pi`, + - * /, unary
 *     minus, parentheses); a multi-qubit gate's operands must be
 *     distinct qubits
 *   - whole-register broadcast (`h q;`, `cx a,b;` over equal-size
 *     registers, a scalar operand repeated against a register)
 *   - `measure q[i] -> c[j];` (and whole-register broadcast)
 *   - `reset q[i];`
 *   - `barrier ...;` (operands ignored; acts as a full barrier)
 *   - **dynamic-circuit extension**: `if (c[k] == v) <gate>;` with a
 *     single-bit condition, matching the conditioned-gate IR. Standard
 *     QASM 2.0 whole-register `if (c == v)` is accepted when the
 *     register has one bit.
 *   - **named-parameter extension**: a lone identifier (other than
 *     `pi`) as a rotation angle — `rz(theta) q[0];` — registers a
 *     symbolic parameter on the circuit (first-use order, initial
 *     value 0) and tags the instruction with its `ParamRef`. Only
 *     rx/ry/rz/rzz accept names, and only as the entire expression;
 *     compile-once / bind-many templates are built from this form.
 *
 * Register sizes, indices and condition values are integer literals in
 * `int` range (`q[1.5]`, `q[1e10]` and `== 1.7` are errors). Angles are
 * decimal literals read to the double `strtod` gives; a malformed
 * (`1.2.3`, `1e`) or out-of-range (`1e400`) one is an error.
 *
 * A program may declare at most `kMaxBits` qubits and `kMaxBits` clbits
 * in total and expand to at most `kMaxInstructions` instructions; a
 * declaration or statement past either cap is an error, reported
 * before anything is allocated for it.
 *
 * Gate subroutine definitions (`gate ... { }`) and `opaque` are not
 * supported; the benchmarks are generated in terms of primitive gates.
 */
#ifndef CAQR_QASM_PARSER_H
#define CAQR_QASM_PARSER_H

#include <string>
#include <string_view>

#include "circuit/circuit.h"
#include "util/status.h"

namespace caqr::qasm {

/// Cap on a program's total qubits, and separately on its clbits: 37x
/// the largest modeled device (heavy-hex, 433 qubits).
inline constexpr int kMaxBits = 1 << 14;

/// Cap on a program's instructions after broadcast expansion: over 50x
/// the largest benchmarked input circuit (a few thousand instructions).
inline constexpr int kMaxInstructions = 1 << 18;

/**
 * Parses OpenQASM 2.0 source text in one pass over its bytes. Failures
 * carry `util::StatusCode::kParseError` with a line-numbered message.
 */
util::StatusOr<circuit::Circuit> parse_circuit(std::string_view source);

/**
 * Reads a whole file into memory. Missing paths report `kNotFound`;
 * unreadable ones (directories, permission failures, read errors,
 * empty files) report `kIoError`.
 */
util::StatusOr<std::string> read_file(const std::string& path);

/// `read_file` then `parse_circuit`; malformed content is `kParseError`.
util::StatusOr<circuit::Circuit> parse_circuit_file(const std::string& path);

}  // namespace caqr::qasm

#endif  // CAQR_QASM_PARSER_H
