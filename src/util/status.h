/**
 * @file
 * The common result envelope for the public pass APIs.
 *
 * Every fallible entry point (QASM parsing, backend lookup,
 * transpilation, the CaQR passes, the compilation service) reports
 * failure through one vocabulary: a `Status` carrying a machine-usable
 * code plus a human-readable message, or a `StatusOr<T>` carrying
 * either a value or such a status. This replaces the historical mix of
 * bool flags, empty-circuit sentinels, and process-aborting checks for
 * conditions that are really *user input* errors, not programming
 * errors.
 *
 * Conventions:
 *  - `Status::ok()` / `StatusOr::ok()` gate every access; reading the
 *    value of a failed `StatusOr` panics (programming error).
 *  - Codes are coarse on purpose — callers branch on "which kind of
 *    failure", the message carries the specifics.
 */
#ifndef CAQR_UTIL_STATUS_H
#define CAQR_UTIL_STATUS_H

#include <optional>
#include <string>
#include <utility>

#include "util/logging.h"

namespace caqr::util {

/// Coarse failure classification shared by every pass.
enum class StatusCode {
    kOk = 0,
    kInvalidArgument,  ///< malformed request/options (caller can fix)
    kNotFound,         ///< unknown backend/benchmark/file
    kParseError,       ///< input text did not parse
    kIoError,          ///< file unreadable / unwritable
    kInfeasible,       ///< valid request with no solution (layout,
                       ///< qubit budget, deadlocked schedule)
    kInternal,         ///< invariant violation surfaced as data
};

/// Short stable name ("ok", "invalid_argument", ...) for logs and CSV.
const char* status_code_name(StatusCode code);

/// A success/failure outcome with a message. Default-constructed = OK.
class Status
{
  public:
    Status() = default;
    Status(StatusCode code, std::string message)
        : code_(code), message_(std::move(message)) {}

    static Status
    invalid_argument(std::string message)
    {
        return Status(StatusCode::kInvalidArgument, std::move(message));
    }
    static Status
    not_found(std::string message)
    {
        return Status(StatusCode::kNotFound, std::move(message));
    }
    static Status
    parse_error(std::string message)
    {
        return Status(StatusCode::kParseError, std::move(message));
    }
    static Status
    io_error(std::string message)
    {
        return Status(StatusCode::kIoError, std::move(message));
    }
    static Status
    infeasible(std::string message)
    {
        return Status(StatusCode::kInfeasible, std::move(message));
    }
    static Status
    internal(std::string message)
    {
        return Status(StatusCode::kInternal, std::move(message));
    }

    bool ok() const { return code_ == StatusCode::kOk; }
    StatusCode code() const { return code_; }
    const std::string& message() const { return message_; }

    /// "ok" or "<code>: <message>" — the one-line rendering used by
    /// CLI tools and report CSVs.
    std::string to_string() const;

    friend bool
    operator==(const Status& a, const Status& b)
    {
        return a.code_ == b.code_ && a.message_ == b.message_;
    }

  private:
    StatusCode code_ = StatusCode::kOk;
    std::string message_;
};

/// A value of type T, or the Status explaining why there isn't one.
template <typename T>
class StatusOr
{
  public:
    /// Failed result. Passing an OK status is a programming error.
    StatusOr(Status status) : status_(std::move(status))  // NOLINT
    {
        CAQR_CHECK(!status_.ok(),
                   "StatusOr constructed from an OK status without a value");
    }
    StatusOr(T value) : value_(std::move(value)) {}  // NOLINT

    bool ok() const { return status_.ok(); }
    const Status& status() const { return status_; }

    const T&
    value() const&
    {
        CAQR_CHECK(ok(), "value() on failed StatusOr: " + status_.message());
        return *value_;
    }
    T&
    value() &
    {
        CAQR_CHECK(ok(), "value() on failed StatusOr: " + status_.message());
        return *value_;
    }
    T&&
    value() &&
    {
        CAQR_CHECK(ok(), "value() on failed StatusOr: " + status_.message());
        return std::move(*value_);
    }

    const T& operator*() const& { return value(); }
    T& operator*() & { return value(); }
    T&& operator*() && { return std::move(*this).value(); }
    const T* operator->() const { return &value(); }
    T* operator->() { return &value(); }

    /// The value, or @p fallback when failed.
    T
    value_or(T fallback) const&
    {
        return ok() ? *value_ : std::move(fallback);
    }

  private:
    Status status_;
    std::optional<T> value_;
};

}  // namespace caqr::util

#endif  // CAQR_UTIL_STATUS_H
