#include "qasm/parser.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <memory>
#include <unordered_map>

namespace caqr::qasm {

namespace {

using circuit::GateKind;

bool
is_space(char c)
{
    return c == ' ' || (c >= '\t' && c <= '\r');
}

bool
is_alpha(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}

bool
is_digit(char c)
{
    return c >= '0' && c <= '9';
}

/// A declared register: its first flat index and its size.
struct Register
{
    int offset = 0;
    int size = 0;
};

/// Register names are views into the source being read.
using Registers = std::unordered_map<std::string_view, Register>;

/// A quantum operand: `size` consecutive flat qubits from `first` —
/// one for `q[i]`, the whole register for `q`.
struct Operand
{
    int first = 0;
    int size = 0;
};

/// Recursive-descent reader over the source bytes. Each token is
/// recognised where it lies, as a view into the source, and
/// instructions go straight into the circuit. Every `bool` step returns
/// false once the read has failed; a failure discards the circuit, so
/// a statement is checked and appended before its closing ';' is read,
/// and its errors carry the statement's line.
class Reader
{
  public:
    explicit Reader(std::string_view source) : src_(source)
    {
        // One instruction per statement, unless a statement broadcasts.
        circuit_.reserve(static_cast<std::size_t>(std::min<std::ptrdiff_t>(
            std::count(source.begin(), source.end(), ';'),
            kMaxInstructions)));
    }

    util::StatusOr<circuit::Circuit>
    run()
    {
        if (word() == "OPENQASM") {
            if (number().empty()) {
                fail("expected version number");
            } else {
                expect(';');
            }
        } else {
            pos_ = 0;
        }
        while (error_.empty() && more()) statement();
        if (!error_.empty()) return util::Status::parse_error(error_);
        return std::move(circuit_);
    }

  private:
    std::string_view src_;
    std::size_t pos_ = 0;
    std::string error_;  ///< the first failure, line-numbered
    circuit::Circuit circuit_;
    Registers qregs_;
    Registers cregs_;

    // ---- cursor ---------------------------------------------------------

    /// Skips whitespace and `//` comments.
    void
    skip()
    {
        const std::size_t n = src_.size();
        while (pos_ < n) {
            const char c = src_[pos_];
            if (is_space(c)) {
                ++pos_;
            } else if (c == '/' && pos_ + 1 < n && src_[pos_ + 1] == '/') {
                pos_ = std::min(src_.find('\n', pos_), n);
            } else {
                break;
            }
        }
    }

    bool
    more()
    {
        skip();
        return pos_ < src_.size();
    }

    /// Records the first failure, at the line of the next token.
    bool
    fail(const std::string& message)
    {
        if (!error_.empty()) return false;
        skip();
        const auto line =
            1 + std::count(src_.begin(), src_.begin() + pos_, '\n');
        error_ = "line " + std::to_string(line) + ": ";
        const char c = pos_ < src_.size() ? src_[pos_] : 'a';
        if (!is_alpha(c) && !is_digit(c) &&
            (c == '\0' || std::strchr("\"[](),;+-*/=>.", c) == nullptr)) {
            error_ += std::string("unexpected character '") + c + "'";
        } else {
            error_ += message;
        }
        return false;
    }

    /// Consumes the token `c` (or the two-byte token `c next`) if it
    /// comes next. A lone '-' never matches the start of "->".
    bool
    eat(char c, char next = '\0')
    {
        skip();
        if (pos_ >= src_.size() || src_[pos_] != c) return false;
        const char after = pos_ + 1 < src_.size() ? src_[pos_ + 1] : '\0';
        if (next != '\0' ? after != next : (c == '-' && after == '>')) {
            return false;
        }
        pos_ += next != '\0' ? 2 : 1;
        return true;
    }

    bool
    expect(char c, char next = '\0')
    {
        return eat(c, next) || expected(c, next);
    }

    /// The failure path of `expect`, kept out of line so the hot path
    /// inlines.
    [[gnu::noinline]] bool
    expected(char c, char next)
    {
        std::string token(1, c);
        if (next != '\0') token += next;
        return fail("expected '" + token + "'");
    }

    /// The identifier that comes next, or an empty view.
    std::string_view
    word()
    {
        skip();
        const std::size_t start = pos_;
        if (pos_ < src_.size() && is_alpha(src_[pos_])) {
            do {
                ++pos_;
            } while (pos_ < src_.size() &&
                     (is_alpha(src_[pos_]) || is_digit(src_[pos_])));
        }
        return src_.substr(start, pos_ - start);
    }

    /// The number literal that comes next, or an empty view: digits,
    /// '.', exponent markers and an exponent's sign, taken greedily.
    std::string_view
    number()
    {
        skip();
        const std::size_t start = pos_;
        const std::size_t n = src_.size();
        if (pos_ >= n || !(is_digit(src_[pos_]) ||
                           (src_[pos_] == '.' && pos_ + 1 < n &&
                            is_digit(src_[pos_ + 1])))) {
            return {};
        }
        for (; pos_ < n; ++pos_) {
            const char c = src_[pos_];
            const bool sign = (c == '+' || c == '-') &&
                              (src_[pos_ - 1] == 'e' || src_[pos_ - 1] == 'E');
            if (!is_digit(c) && c != '.' && c != 'e' && c != 'E' && !sign) {
                break;
            }
        }
        return src_.substr(start, pos_ - start);
    }

    /// An integer literal in `int` range: a register size, an index or
    /// a condition value.
    bool
    integer(const char* what, int* value)
    {
        const std::string_view text = number();
        if (text.empty()) return fail(std::string("expected ") + what);
        const char* end = text.data() + text.size();
        const auto [last, ec] = std::from_chars(text.data(), end, *value);
        if (ec != std::errc() || last != end) {
            return fail(std::string(what) +
                        " must be an integer literal in int range, got '" +
                        std::string(text) + "'");
        }
        return true;
    }

    // ---- parameter expressions (constant folded) --------------------------

    double
    expression()
    {
        double value = term();
        for (;;) {
            if (eat('+')) {
                value += term();
            } else if (eat('-')) {
                value -= term();
            } else {
                return value;
            }
        }
    }

    double
    term()
    {
        double value = unary();
        for (;;) {
            if (eat('*')) {
                value *= unary();
            } else if (eat('/')) {
                const double rhs = unary();
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
    unary()
    {
        if (eat('-')) return -unary();
        if (eat('+')) return unary();
        if (eat('(')) {
            const double value = expression();
            expect(')');
            return value;
        }
        if (const std::string_view text = number(); !text.empty()) {
            // from_chars reads a decimal literal to the same double as
            // strtod, but reports what strtod would silently accept.
            double value = 0.0;
            const char* end = text.data() + text.size();
            const auto [last, ec] = std::from_chars(text.data(), end, value);
            if (ec != std::errc() || last != end) {
                fail("real literal '" + std::string(text) +
                     "' is malformed or out of range");
            }
            return value;
        }
        const std::size_t mark = pos_;
        if (word() == "pi") return 3.14159265358979323846;
        pos_ = mark;
        fail("expected parameter expression");
        return 0.0;
    }

    // ---- operands ---------------------------------------------------------

    /// `name[i]` or `name` (the whole register) from @p table.
    bool
    operand(const Registers& table, const char* what, Operand* out)
    {
        const std::string_view name = word();
        if (name.empty()) {
            return fail(std::string("expected ") + what + " operand");
        }
        const auto it = table.find(name);
        if (it == table.end()) {
            return fail("unknown register '" + std::string(name) + "'");
        }
        const Register reg = it->second;
        if (!eat('[')) {
            *out = {reg.offset, reg.size};
            return true;
        }
        int index = 0;
        if (!integer("register index", &index) || !expect(']')) return false;
        if (index >= reg.size) {
            return fail("register index out of range for '" +
                        std::string(name) + "'");
        }
        *out = {reg.offset + index, 1};
        return true;
    }

    // ---- statements -------------------------------------------------------

    /// False (and a failure) unless @p count more instructions keep the
    /// program within kMaxInstructions.
    bool
    room(int count)
    {
        if (static_cast<int>(circuit_.size()) <= kMaxInstructions - count) {
            return true;
        }
        return fail("statement takes the program past " +
                    std::to_string(kMaxInstructions) + " instructions");
    }

    void
    statement()
    {
        const std::string_view keyword = word();
        if (keyword == "include") {
            // The path is read and ignored.
            if (!eat('"')) {
                fail("expected include path");
                return;
            }
            const std::size_t close = src_.find('"', pos_);
            if (close == std::string_view::npos) {
                fail("unterminated string literal");
                return;
            }
            pos_ = close + 1;
            expect(';');
        } else if (keyword == "qreg" || keyword == "creg") {
            declare(keyword == "qreg");
        } else if (keyword == "measure") {
            Operand q, c;
            if (!operand(qregs_, "quantum", &q) || !expect('-', '>') ||
                !operand(cregs_, "classical", &c)) {
                return;
            }
            if (q.size != c.size) {
                fail("measure operand sizes do not match");
                return;
            }
            if (!room(q.size)) return;
            for (int i = 0; i < q.size; ++i) {
                circuit_.measure(q.first + i, c.first + i);
            }
            expect(';');
        } else if (keyword == "reset") {
            Operand q;
            if (!operand(qregs_, "quantum", &q) || !room(q.size)) return;
            for (int i = 0; i < q.size; ++i) circuit_.reset(q.first + i);
            expect(';');
        } else if (keyword == "barrier") {
            // Operands are checked and discarded: the IR barrier is global.
            Operand ignored;
            skip();
            if (pos_ < src_.size() && is_alpha(src_[pos_])) {
                do {
                    if (!operand(qregs_, "quantum", &ignored)) return;
                } while (eat(','));
            }
            if (!room(1)) return;
            circuit_.barrier();
            expect(';');
        } else if (keyword == "if") {
            condition();
        } else {
            gate(keyword, -1, 1);
        }
    }

    void
    declare(bool quantum)
    {
        const std::string_view name = word();
        if (name.empty()) {
            fail("expected register name");
            return;
        }
        int size = 0;
        if (!expect('[') || !integer("register size", &size) ||
            !expect(']')) {
            return;
        }
        const int offset =
            quantum ? circuit_.num_qubits() : circuit_.num_clbits();
        if (size <= 0) {
            fail("register size must be positive");
        } else if (size > kMaxBits - offset) {
            fail("register '" + std::string(name) +
                 "' takes the program past " + std::to_string(kMaxBits) +
                 (quantum ? " qubits" : " clbits"));
        } else if (!(quantum ? qregs_ : cregs_)
                        .emplace(name, Register{offset, size})
                        .second) {
            fail("duplicate register '" + std::string(name) + "'");
        } else {
            if (quantum) {
                circuit_.add_qubit(size);
            } else {
                circuit_.add_clbit(size);
            }
            expect(';');
        }
    }

    /// `if (c[k] == v) <gate>;`, or `if (c == v)` on a 1-bit register.
    void
    condition()
    {
        if (!expect('(')) return;
        const std::string_view name = word();
        if (name.empty()) {
            fail("expected classical register in condition");
            return;
        }
        const auto it = cregs_.find(name);
        if (it == cregs_.end()) {
            fail("unknown classical register '" + std::string(name) + "'");
            return;
        }
        const Register reg = it->second;
        int bit = reg.offset;
        if (eat('[')) {
            int index = 0;
            if (!integer("bit index", &index) || !expect(']')) return;
            if (index >= reg.size) {
                fail("condition bit out of range");
                return;
            }
            bit += index;
        } else if (reg.size != 1) {
            fail("whole-register conditions require a 1-bit register; "
                 "use the c[k] extension");
            return;
        }
        int value = 0;
        if (!expect('=', '=') || !integer("condition value", &value) ||
            !expect(')')) {
            return;
        }
        if (value != 0 && value != 1) {
            fail("single-bit condition value must be 0 or 1");
            return;
        }
        gate(word(), bit, value);
    }

    /// One parameter: a constant-folded expression or, by the
    /// named-parameter extension, a lone identifier other than `pi`.
    void
    angle(circuit::Instruction& instr)
    {
        const std::size_t mark = pos_;
        const std::string_view name = word();
        if (!name.empty() && name != "pi") {
            skip();
            const char next = pos_ < src_.size() ? src_[pos_] : '\0';
            if (next == ',' || next == ')') {
                circuit::ParamRef ref = circuit_.find_param(name);
                if (ref == circuit::kNoParam) {
                    ref = circuit_.add_param(std::string(name), 0.0);
                }
                instr.params.push_back(circuit_.param_value(ref));
                instr.param_ref = ref;
                return;
            }
        }
        pos_ = mark;
        instr.params.push_back(expression());
    }

    void
    gate(std::string_view name, int condition_bit, int condition_value)
    {
        if (name.empty()) {
            fail("expected gate name");
            return;
        }
        circuit::Instruction instr;
        if (!circuit::gate_kind_from_name(name, &instr.kind) ||
            instr.kind == GateKind::kMeasure ||
            instr.kind == GateKind::kBarrier) {
            fail("unsupported gate '" + std::string(name) + "'");
            return;
        }
        instr.condition_bit = condition_bit;
        instr.condition_value = condition_value;
        if (eat('(') && !eat(')')) {
            do {
                angle(instr);
            } while (error_.empty() && eat(','));
            if (!expect(')')) return;
        }
        const GateKind kind = instr.kind;
        if (static_cast<int>(instr.params.size()) !=
            circuit::gate_num_params(kind)) {
            fail("wrong parameter count for gate '" + std::string(name) + "'");
            return;
        }
        if (instr.is_symbolic() && kind != GateKind::kRx &&
            kind != GateKind::kRy && kind != GateKind::kRz &&
            kind != GateKind::kRzz) {
            fail("named parameters are only supported on rx/ry/rz/rzz");
            return;
        }

        const int arity = circuit::gate_arity(kind);
        Operand operands[3];
        int count = 0;
        do {
            Operand op;
            if (!operand(qregs_, "quantum", &op)) return;
            if (count < arity) operands[count] = op;
            ++count;
        } while (eat(','));
        if (count != arity) {
            fail("wrong operand count for gate '" + std::string(name) + "'");
            return;
        }
        // Broadcast: every register operand has the same length; a
        // single qubit repeats against it.
        int length = 1;
        for (int k = 0; k < count; ++k) {
            if (operands[k].size > 1) {
                if (length > 1 && operands[k].size != length) {
                    fail("mismatched broadcast lengths");
                    return;
                }
                length = operands[k].size;
            }
        }
        if (!room(length)) return;
        for (int rep = 0; rep < length; ++rep) {
            instr.qubits.clear();
            for (int k = 0; k < count; ++k) {
                const int q = operands[k].first +
                              (operands[k].size == 1 ? 0 : rep);
                if (instr.uses_qubit(q)) {
                    fail("gate '" + std::string(name) +
                         "' needs distinct qubit operands");
                    return;
                }
                instr.qubits.push_back(q);
            }
            circuit_.append(rep + 1 == length ? std::move(instr)
                                              : circuit::Instruction(instr));
        }
        expect(';');
    }
};

}  // namespace

util::StatusOr<circuit::Circuit>
parse_circuit(std::string_view source)
{
    return Reader(source).run();
}

util::StatusOr<std::string>
read_file(const std::string& path)
{
    const auto close = [](std::FILE* stream) { std::fclose(stream); };
    const std::unique_ptr<std::FILE, decltype(close)> file(
        std::fopen(path.c_str(), "rbe"), close);
    if (file == nullptr) {
        if (errno == ENOENT || errno == ENOTDIR) {
            return util::Status::not_found("no such file: '" + path + "'");
        }
        return util::Status::io_error("cannot open '" + path +
                                      "': " + std::strerror(errno));
    }
    struct stat info;
    if (::fstat(::fileno(file.get()), &info) != 0 ||
        !S_ISREG(info.st_mode)) {
        return util::Status::io_error("not a regular file: '" + path + "'");
    }
    // One read of the size fstat saw; a file that shrank since is cut.
    std::string bytes(static_cast<std::size_t>(info.st_size), '\0');
    bytes.resize(std::fread(bytes.data(), 1, bytes.size(), file.get()));
    if (std::ferror(file.get()) != 0 || bytes.empty()) {
        return util::Status::io_error("cannot read '" + path + "'");
    }
    return bytes;
}

util::StatusOr<circuit::Circuit>
parse_circuit_file(const std::string& path)
{
    auto bytes = read_file(path);
    if (!bytes.ok()) return bytes.status();
    return parse_circuit(*bytes);
}

}  // namespace caqr::qasm
