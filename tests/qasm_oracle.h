/**
 * @file
 * Reference OpenQASM 2.0 reader for differential tests: the
 * tokenize-then-parse pipeline `qasm::parse_circuit` replaced, kept
 * verbatim apart from its result envelope. A token vector is built for
 * the whole source, then a recursive-descent parser walks it.
 *
 * It reads every literal with `strtod` and casts indices, register
 * sizes and condition values to `int`, so `q[1.5]` reads as `q[1]` and
 * `q[1e10]` is undefined behaviour; repeated operands of a two-qubit
 * gate abort in `Circuit::append`. Differential tests therefore run it
 * only on sources the one-pass reader accepts, or rejects for a reason
 * this reader shares.
 */
#ifndef CAQR_TESTS_QASM_ORACLE_H
#define CAQR_TESTS_QASM_ORACLE_H

#include <cctype>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "util/status.h"

namespace caqr::qasm_oracle {

/// Token categories.
enum class TokenKind {
    kIdentifier,  ///< qreg, creg, gate names, register names, pi
    kNumber,      ///< integer or real literal
    kString,      ///< double-quoted string (include paths)
    kLBracket,    ///< [
    kRBracket,    ///< ]
    kLParen,      ///< (
    kRParen,      ///< )
    kComma,       ///< ,
    kSemicolon,   ///< ;
    kArrow,       ///< ->
    kEqualEqual,  ///< ==
    kPlus,        ///< +
    kMinus,       ///< -
    kStar,        ///< *
    kSlash,       ///< /
    kEnd,         ///< end of input
};

/// One lexical token with its source line for diagnostics.
struct Token
{
    TokenKind kind = TokenKind::kEnd;
    std::string text;
    double number = 0.0;
    int line = 0;
};

inline std::vector<Token>
tokenize(const std::string& source, std::string* error)
{
    std::vector<Token> tokens;
    int line = 1;
    std::size_t i = 0;
    const std::size_t n = source.size();

    auto fail = [&](const std::string& message) {
        if (error) {
            std::ostringstream os;
            os << "line " << line << ": " << message;
            *error = os.str();
        }
        tokens.clear();
    };

    while (i < n) {
        const char c = source[i];
        if (c == '\n') {
            ++line;
            ++i;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c))) {
            ++i;
            continue;
        }
        if (c == '/' && i + 1 < n && source[i + 1] == '/') {
            while (i < n && source[i] != '\n') ++i;
            continue;
        }

        Token token;
        token.line = line;
        if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
            std::size_t start = i;
            while (i < n && (std::isalnum(static_cast<unsigned char>(
                                 source[i])) ||
                             source[i] == '_')) {
                ++i;
            }
            token.kind = TokenKind::kIdentifier;
            token.text = source.substr(start, i - start);
        } else if (std::isdigit(static_cast<unsigned char>(c)) ||
                   (c == '.' && i + 1 < n &&
                    std::isdigit(static_cast<unsigned char>(source[i + 1])))) {
            std::size_t start = i;
            while (i < n && (std::isdigit(static_cast<unsigned char>(
                                 source[i])) ||
                             source[i] == '.' || source[i] == 'e' ||
                             source[i] == 'E' ||
                             ((source[i] == '+' || source[i] == '-') && i > start &&
                              (source[i - 1] == 'e' || source[i - 1] == 'E')))) {
                ++i;
            }
            token.kind = TokenKind::kNumber;
            token.text = source.substr(start, i - start);
            token.number = std::strtod(token.text.c_str(), nullptr);
        } else if (c == '"') {
            std::size_t start = ++i;
            while (i < n && source[i] != '"') ++i;
            if (i >= n) {
                fail("unterminated string literal");
                return tokens;
            }
            token.kind = TokenKind::kString;
            token.text = source.substr(start, i - start);
            ++i;
        } else if (c == '-' && i + 1 < n && source[i + 1] == '>') {
            token.kind = TokenKind::kArrow;
            token.text = "->";
            i += 2;
        } else if (c == '=' && i + 1 < n && source[i + 1] == '=') {
            token.kind = TokenKind::kEqualEqual;
            token.text = "==";
            i += 2;
        } else {
            switch (c) {
              case '[': token.kind = TokenKind::kLBracket; break;
              case ']': token.kind = TokenKind::kRBracket; break;
              case '(': token.kind = TokenKind::kLParen; break;
              case ')': token.kind = TokenKind::kRParen; break;
              case ',': token.kind = TokenKind::kComma; break;
              case ';': token.kind = TokenKind::kSemicolon; break;
              case '+': token.kind = TokenKind::kPlus; break;
              case '-': token.kind = TokenKind::kMinus; break;
              case '*': token.kind = TokenKind::kStar; break;
              case '/': token.kind = TokenKind::kSlash; break;
              default:
                fail(std::string("unexpected character '") + c + "'");
                return tokens;
            }
            token.text = std::string(1, c);
            ++i;
        }
        tokens.push_back(std::move(token));
    }

    Token end;
    end.kind = TokenKind::kEnd;
    end.line = line;
    tokens.push_back(end);
    return tokens;
}

namespace detail {

/// Register descriptor: base offset into the flat index space + size.
struct Register
{
    int offset = 0;
    int size = 0;
};

/// Recursive-descent parser over the token stream.
class Parser
{
  public:
    explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

    util::StatusOr<circuit::Circuit>
    run()
    {
        parse_header();
        while (ok_ && !check(TokenKind::kEnd)) {
            parse_statement();
        }
        if (!ok_) return util::Status::parse_error(error_);
        return std::move(circuit_);
    }

  private:
    std::vector<Token> tokens_;
    std::size_t pos_ = 0;
    bool ok_ = true;
    std::string error_;
    circuit::Circuit circuit_;
    std::map<std::string, Register> qregs_;
    std::map<std::string, Register> cregs_;

    const Token& peek() const { return tokens_[pos_]; }

    /// One token of lookahead (saturates at the trailing kEnd token).
    const Token&
    peek_next() const
    {
        const std::size_t next = pos_ + 1;
        return tokens_[next < tokens_.size() ? next : tokens_.size() - 1];
    }

    const Token&
    advance()
    {
        const Token& token = tokens_[pos_];
        if (token.kind != TokenKind::kEnd) ++pos_;
        return token;
    }

    bool check(TokenKind kind) const { return peek().kind == kind; }

    bool
    match(TokenKind kind)
    {
        if (!check(kind)) return false;
        advance();
        return true;
    }

    void
    fail(const std::string& message)
    {
        if (!ok_) return;
        ok_ = false;
        std::ostringstream os;
        os << "line " << peek().line << ": " << message;
        error_ = os.str();
    }

    void
    expect(TokenKind kind, const std::string& what)
    {
        if (!match(kind)) fail("expected " + what);
    }

    bool
    match_identifier(const std::string& text)
    {
        if (check(TokenKind::kIdentifier) && peek().text == text) {
            advance();
            return true;
        }
        return false;
    }

    void
    parse_header()
    {
        if (match_identifier("OPENQASM")) {
            expect(TokenKind::kNumber, "version number");
            expect(TokenKind::kSemicolon, "';'");
        }
    }

    // ---- expressions (constant folding) --------------------------------

    double
    parse_expression()
    {
        double value = parse_term();
        for (;;) {
            if (match(TokenKind::kPlus)) {
                value += parse_term();
            } else if (match(TokenKind::kMinus)) {
                value -= parse_term();
            } else {
                return value;
            }
        }
    }

    double
    parse_term()
    {
        double value = parse_unary();
        for (;;) {
            if (match(TokenKind::kStar)) {
                value *= parse_unary();
            } else if (match(TokenKind::kSlash)) {
                const double rhs = parse_unary();
                if (rhs == 0.0) {
                    fail("division by zero in parameter expression");
                    return 0.0;
                }
                value /= rhs;
            } else {
                return value;
            }
        }
    }

    double
    parse_unary()
    {
        if (match(TokenKind::kMinus)) return -parse_unary();
        if (match(TokenKind::kPlus)) return parse_unary();
        if (match(TokenKind::kLParen)) {
            const double value = parse_expression();
            expect(TokenKind::kRParen, "')'");
            return value;
        }
        if (check(TokenKind::kNumber)) return advance().number;
        if (check(TokenKind::kIdentifier) && peek().text == "pi") {
            advance();
            return 3.14159265358979323846;
        }
        fail("expected parameter expression");
        return 0.0;
    }

    // ---- operands -------------------------------------------------------

    /// Parses `name` or `name[i]`; returns flat indices (whole register
    /// when no subscript is given).
    std::vector<int>
    parse_operand(const std::map<std::string, Register>& table,
                  const char* what)
    {
        if (!check(TokenKind::kIdentifier)) {
            fail(std::string("expected ") + what + " operand");
            return {};
        }
        const std::string name = advance().text;
        auto it = table.find(name);
        if (it == table.end()) {
            fail("unknown register '" + name + "'");
            return {};
        }
        const Register& reg = it->second;
        if (match(TokenKind::kLBracket)) {
            if (!check(TokenKind::kNumber)) {
                fail("expected register index");
                return {};
            }
            const int index = static_cast<int>(advance().number);
            expect(TokenKind::kRBracket, "']'");
            if (index < 0 || index >= reg.size) {
                fail("register index out of range for '" + name + "'");
                return {};
            }
            return {reg.offset + index};
        }
        std::vector<int> all;
        for (int i = 0; i < reg.size; ++i) all.push_back(reg.offset + i);
        return all;
    }

    // ---- statements -----------------------------------------------------

    void
    parse_register_decl(bool quantum)
    {
        if (!check(TokenKind::kIdentifier)) {
            fail("expected register name");
            return;
        }
        const std::string name = advance().text;
        expect(TokenKind::kLBracket, "'['");
        if (!check(TokenKind::kNumber)) {
            fail("expected register size");
            return;
        }
        const int size = static_cast<int>(advance().number);
        expect(TokenKind::kRBracket, "']'");
        expect(TokenKind::kSemicolon, "';'");
        if (!ok_) return;
        if (size <= 0) {
            fail("register size must be positive");
            return;
        }
        auto& table = quantum ? qregs_ : cregs_;
        if (table.count(name)) {
            fail("duplicate register '" + name + "'");
            return;
        }
        Register reg;
        reg.size = size;
        if (quantum) {
            reg.offset = circuit_.num_qubits();
            for (int i = 0; i < size; ++i) circuit_.add_qubit();
        } else {
            reg.offset = circuit_.num_clbits();
            for (int i = 0; i < size; ++i) circuit_.add_clbit();
        }
        table[name] = reg;
    }

    void
    parse_measure()
    {
        auto qubits = parse_operand(qregs_, "quantum");
        expect(TokenKind::kArrow, "'->'");
        auto clbits = parse_operand(cregs_, "classical");
        expect(TokenKind::kSemicolon, "';'");
        if (!ok_) return;
        if (qubits.size() != clbits.size()) {
            fail("measure operand sizes do not match");
            return;
        }
        for (std::size_t i = 0; i < qubits.size(); ++i) {
            circuit_.measure(qubits[i], clbits[i]);
        }
    }

    void
    parse_if()
    {
        expect(TokenKind::kLParen, "'('");
        if (!check(TokenKind::kIdentifier)) {
            fail("expected classical register in condition");
            return;
        }
        const std::string name = advance().text;
        auto it = cregs_.find(name);
        if (it == cregs_.end()) {
            fail("unknown classical register '" + name + "'");
            return;
        }
        int bit;
        if (match(TokenKind::kLBracket)) {
            if (!check(TokenKind::kNumber)) {
                fail("expected bit index");
                return;
            }
            const int index = static_cast<int>(advance().number);
            expect(TokenKind::kRBracket, "']'");
            if (index < 0 || index >= it->second.size) {
                fail("condition bit out of range");
                return;
            }
            bit = it->second.offset + index;
        } else if (it->second.size == 1) {
            bit = it->second.offset;
        } else {
            fail("whole-register conditions require a 1-bit register; "
                 "use the c[k] extension");
            return;
        }
        expect(TokenKind::kEqualEqual, "'=='");
        if (!check(TokenKind::kNumber)) {
            fail("expected condition value");
            return;
        }
        const int value = static_cast<int>(advance().number);
        expect(TokenKind::kRParen, "')'");
        if (!ok_) return;
        if (value != 0 && value != 1) {
            fail("single-bit condition value must be 0 or 1");
            return;
        }
        parse_gate_application(bit, value);
    }

    void
    parse_gate_application(int condition_bit = -1, int condition_value = 1)
    {
        if (!check(TokenKind::kIdentifier)) {
            fail("expected gate name");
            return;
        }
        const std::string name = advance().text;
        circuit::GateKind kind;
        if (!circuit::gate_kind_from_name(name, &kind) ||
            kind == circuit::GateKind::kMeasure ||
            kind == circuit::GateKind::kBarrier) {
            fail("unsupported gate '" + name + "'");
            return;
        }

        std::vector<double> params;
        std::vector<circuit::ParamRef> param_refs;
        if (match(TokenKind::kLParen)) {
            if (!check(TokenKind::kRParen)) {
                do {
                    // Named-parameter extension: a lone identifier
                    // (other than `pi`) as the whole parameter
                    // expression registers a symbolic parameter in
                    // first-use order (initial value 0).
                    if (check(TokenKind::kIdentifier) &&
                        peek().text != "pi" &&
                        (peek_next().kind == TokenKind::kComma ||
                         peek_next().kind == TokenKind::kRParen)) {
                        const std::string param = advance().text;
                        circuit::ParamRef ref = circuit_.find_param(param);
                        if (ref == circuit::kNoParam) {
                            ref = circuit_.add_param(param, 0.0);
                        }
                        params.push_back(circuit_.param_value(ref));
                        param_refs.push_back(ref);
                    } else {
                        params.push_back(parse_expression());
                        param_refs.push_back(circuit::kNoParam);
                    }
                } while (match(TokenKind::kComma));
            }
            expect(TokenKind::kRParen, "')'");
        }
        if (ok_ && static_cast<int>(params.size()) !=
                       circuit::gate_num_params(kind)) {
            fail("wrong parameter count for gate '" + name + "'");
            return;
        }
        circuit::ParamRef sym_ref = circuit::kNoParam;
        for (circuit::ParamRef ref : param_refs) {
            if (ref != circuit::kNoParam) sym_ref = ref;
        }
        if (ok_ && sym_ref != circuit::kNoParam &&
            !(kind == circuit::GateKind::kRx ||
              kind == circuit::GateKind::kRy ||
              kind == circuit::GateKind::kRz ||
              kind == circuit::GateKind::kRzz)) {
            fail("named parameters are only supported on rx/ry/rz/rzz");
            return;
        }

        std::vector<std::vector<int>> operands;
        operands.push_back(parse_operand(qregs_, "quantum"));
        while (match(TokenKind::kComma)) {
            operands.push_back(parse_operand(qregs_, "quantum"));
        }
        expect(TokenKind::kSemicolon, "';'");
        if (!ok_) return;

        const int arity = circuit::gate_arity(kind);
        if (static_cast<int>(operands.size()) != arity) {
            // Whole-register broadcast only for single-qubit gates.
            if (!(arity == 1 && operands.size() == 1)) {
                fail("wrong operand count for gate '" + name + "'");
                return;
            }
        }
        // Broadcast: all operand vectors must have equal length (or be
        // scalar); QASM 2.0 semantics.
        std::size_t length = 1;
        for (const auto& ops : operands) {
            if (ops.size() > 1) {
                if (length > 1 && ops.size() != length) {
                    fail("mismatched broadcast lengths");
                    return;
                }
                length = ops.size();
            }
        }
        for (std::size_t rep = 0; rep < length; ++rep) {
            circuit::Instruction instr;
            instr.kind = kind;
            instr.params = params;
            instr.param_ref = sym_ref;
            instr.condition_bit = condition_bit;
            instr.condition_value = condition_value;
            for (const auto& ops : operands) {
                instr.qubits.push_back(
                    ops.size() == 1 ? ops[0] : ops[rep]);
            }
            circuit_.append(std::move(instr));
        }
    }

    void
    parse_statement()
    {
        if (match_identifier("include")) {
            expect(TokenKind::kString, "include path");
            expect(TokenKind::kSemicolon, "';'");
            return;
        }
        if (match_identifier("qreg")) {
            parse_register_decl(/*quantum=*/true);
            return;
        }
        if (match_identifier("creg")) {
            parse_register_decl(/*quantum=*/false);
            return;
        }
        if (match_identifier("measure")) {
            parse_measure();
            return;
        }
        if (match_identifier("reset")) {
            auto qubits = parse_operand(qregs_, "quantum");
            expect(TokenKind::kSemicolon, "';'");
            if (!ok_) return;
            for (int q : qubits) circuit_.reset(q);
            return;
        }
        if (match_identifier("barrier")) {
            // Operands are parsed and discarded: the IR barrier is global.
            if (check(TokenKind::kIdentifier)) {
                parse_operand(qregs_, "quantum");
                while (match(TokenKind::kComma)) {
                    parse_operand(qregs_, "quantum");
                }
            }
            expect(TokenKind::kSemicolon, "';'");
            if (ok_) circuit_.barrier();
            return;
        }
        if (match_identifier("if")) {
            parse_if();
            return;
        }
        parse_gate_application();
    }
};

}  // namespace detail

/// Parses @p source with the reference pipeline; failures carry
/// `kParseError` with a line-numbered message.
inline util::StatusOr<circuit::Circuit>
parse(const std::string& source)
{
    std::string lex_error;
    auto tokens = tokenize(source, &lex_error);
    if (tokens.empty()) {
        return util::Status::parse_error(lex_error.empty() ? "empty input"
                                                           : lex_error);
    }
    return detail::Parser(std::move(tokens)).run();
}

}  // namespace caqr::qasm_oracle

#endif  // CAQR_TESTS_QASM_ORACLE_H
