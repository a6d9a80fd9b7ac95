/**
 * @file
 * The serving line protocol, factored out of the transports.
 *
 * One `serve::Session` is the protocol state machine for one client:
 * it holds the per-session request prototype (strategy, backend,
 * trials, threads — mutable via `set`) over one shared
 * `caqr::Service`, and turns each input line into a response block.
 * The stdin front end (`qasm_tool --serve`) and the epoll TCP front end
 * (`qasm_tool --listen`, service/server.h) both drive this class, so
 * the protocol cannot drift between transports.
 *
 * Responses are newline-terminated blocks whose final line starts
 * with `ok` or `error`; intermediate lines start with `row`, `stat`,
 * `#`, or are part of a JSON document. See docs/serving.md.
 *
 * `LineBuffer` is the shared incremental framing: raw bytes in,
 * complete lines out, with an explicit cap on line length and an
 * explicit drain of a final unterminated line at EOF — a client that
 * forgets the trailing newline still gets its last command served.
 */
#ifndef CAQR_SERVICE_PROTOCOL_H
#define CAQR_SERVICE_PROTOCOL_H

#include <cstddef>
#include <optional>
#include <string>

#include "service/service.h"

namespace caqr::serve {

/// Protocol revision reported by the `version` command and the
/// greeting. Version 1 was the original compile/batch/stats/set
/// protocol; version 2 added `version` plus the template → bind
/// commands (`template`, `bind`).
inline constexpr int kProtocolVersion = 2;

/// Incremental newline framing with a line-length bound. Not
/// thread-safe; each connection owns one.
class LineBuffer
{
  public:
    explicit LineBuffer(std::size_t max_line_bytes);

    /// Appends raw bytes. Returns false — and latches `overflowed` —
    /// once the unterminated tail exceeds the line limit; the caller
    /// should error out the connection.
    bool append(const char* data, std::size_t size);

    /// Next complete line, terminator stripped (a trailing '\r' from
    /// CRLF clients is stripped too); nullopt when none is buffered.
    std::optional<std::string> next_line();

    /// Drains the final unterminated line at EOF, if any bytes remain.
    std::optional<std::string> take_partial();

    bool overflowed() const { return overflowed_; }
    std::size_t pending_bytes() const { return buffer_.size(); }

  private:
    std::size_t max_line_bytes_;
    std::string buffer_;
    bool overflowed_ = false;
};

/// Per-session protocol defaults (the initial request prototype).
struct SessionOptions
{
    Strategy strategy = Strategy::kQsCaqr;
    std::string backend = "FakeMumbai";
};

/**
 * Protocol state machine for one client session. Not thread-safe: a
 * session's commands execute one at a time (the transports guarantee
 * this), though many sessions share one `Service` concurrently.
 */
class Session
{
  public:
    Session(Service& service, const SessionOptions& options);

    /// The banner both transports send when a session opens.
    static std::string greeting(const SessionOptions& options);

    struct Result
    {
        std::string output;  ///< full response block, '\n'-terminated
        bool quit = false;   ///< client asked to end the session
        /// Compile requests this line drove through the service (one
        /// for `compile`/`bind`, the expansion size for `batch`, zero
        /// for everything else) — the event log's unit of work.
        int compiles = 0;
        /// Of those, how many the content-addressed compile cache
        /// answered without running the pipeline.
        int cache_hits = 0;
    };

    /// Handles one protocol line. Empty lines and `#` comments produce
    /// an empty output. `quit`/`exit` answer "ok bye" with quit set;
    /// protocol errors answer "error ..." and keep the session alive.
    Result handle_line(const std::string& line);

  private:
    Service& service_;
    CompileRequest prototype_;
};

}  // namespace caqr::serve

#endif  // CAQR_SERVICE_PROTOCOL_H
