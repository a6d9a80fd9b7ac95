/**
 * @file
 * Epoll-based TCP front end over one shared `caqr::Service`.
 *
 * The server multiplexes many concurrent client sessions — each
 * speaking the `serve::Session` line protocol — over a single
 * event-loop thread plus a worker pool:
 *
 *  - **Event loop** (one thread, epoll): accepts connections, frames
 *    lines (`LineBuffer`), flushes responses, and enforces every
 *    limit. Sockets are nonblocking; partial writes park on EPOLLOUT.
 *  - **Workers** (`util::ThreadPool`): execute protocol commands —
 *    compiles run here, never on the event loop, so a slow compile
 *    cannot stall accepts, reads, or other sessions' responses.
 *  - **Ordering**: a session's commands execute strictly one at a
 *    time, in arrival order, so responses interleave exactly like the
 *    stdin transport; different sessions run fully in parallel.
 *
 * Overload and fault behavior (all counted by the `server.*`
 * counters in the service's metrics registry):
 *
 *  - **Admission control**: a session may have at most
 *    `session_queue_limit` commands queued and the server at most
 *    `global_queue_limit` queued+executing overall; excess commands
 *    are answered immediately with `error busy ...` instead of
 *    queueing without bound.
 *  - **Session cap**: past `max_sessions`, new connections get one
 *    `error busy ...` line and are closed.
 *  - **Oversized lines** close the connection after an error
 *    response; **idle sessions** (no completed command for
 *    `idle_timeout_ms`, which also catches slow-loris writers that
 *    trickle a line byte-by-byte) are closed; a client that stops
 *    reading (output backlog past `max_output_bytes`) is dropped.
 *  - **Graceful drain** (`request_drain`, async-signal-safe — wired
 *    to SIGTERM by `qasm_tool --listen`): stop accepting, let queued
 *    and in-flight commands finish and flush, close everything, then
 *    `wait()` returns. `drain_grace_ms` bounds the wait.
 *
 * The same listener doubles as a telemetry scrape surface: the first
 * line of a connection is sniffed, and a plain `GET`/`HEAD` request
 * is answered as one-shot HTTP — `/metrics` (Prometheus text),
 * `/healthz` (200, or 503 while draining), `/varz` (JSON) — then
 * closed. Line-protocol clients receive the greeting banner in
 * response to their first line instead of at accept time, which is
 * what makes the sniff possible. See docs/observability.md.
 */
#ifndef CAQR_SERVICE_SERVER_H
#define CAQR_SERVICE_SERVER_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "service/protocol.h"
#include "service/service.h"
#include "service/telemetry.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace caqr::serve {

/// Front-end configuration. Every member has a default initializer, so
/// partial designated initializers are complete.
struct ServerOptions
{
    /// Listen address; loopback by default (the tool is a compile
    /// service, not an internet daemon).
    std::string bind_address = "127.0.0.1";
    /// TCP port; 0 binds an ephemeral port (read it back via
    /// `Server::port()`).
    int port = 0;
    /// Concurrent session cap; excess connections are rejected with
    /// one `error busy` line.
    int max_sessions = 64;
    /// Commands queued per session before `error busy` (the executing
    /// command is not counted).
    int session_queue_limit = 8;
    /// Queued + executing commands across all sessions before
    /// `error busy`.
    int global_queue_limit = 128;
    /// Longest a protocol line may grow before the session is errored
    /// out and closed.
    std::size_t max_line_bytes = 64 * 1024;
    /// Unread response backlog that marks a client dead (stopped
    /// reading); the session is closed.
    std::size_t max_output_bytes = 8 * 1024 * 1024;
    /// A session with no *completed* command line for this long is
    /// closed. Trickling bytes without finishing a line does not
    /// reset the clock, so slow-loris writers fall to the same timer.
    /// <= 0 disables.
    int idle_timeout_ms = 30000;
    /// Hard deadline for graceful drain; sessions still busy after
    /// this are force-closed.
    int drain_grace_ms = 10000;
    /// Worker threads executing commands: 0/negative = one per
    /// hardware thread.
    int num_workers = 0;
    /// Structured JSONL event log (request start/finish, admission
    /// rejections, cache hits, drain transitions — see
    /// docs/observability.md for the schema). Empty = disabled.
    /// `start()` fails with kIoError when the path cannot be opened.
    std::string event_log_path{};
    /// Protocol defaults for new sessions.
    SessionOptions session{};
};

class Server
{
  public:
    /// @p service must outlive the server. Nothing happens until
    /// `start()`.
    Server(Service& service, ServerOptions options = {});

    /// Stops the event loop (hard) if still running.
    ~Server();

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /// Binds, listens, and spawns the event-loop thread. kIoError on
    /// bind/listen failure (e.g. port in use).
    util::Status start();

    /// The bound port (resolves ephemeral port 0); 0 before start().
    int port() const { return port_; }

    bool running() const { return running_.load(); }

    /**
     * Requests a graceful drain: stop accepting, finish queued and
     * in-flight commands, flush, close, and let the event loop exit.
     * Async-signal-safe (an atomic store plus an eventfd write), so
     * it may be called directly from a SIGTERM handler. Returns
     * immediately; `wait()` blocks until the drain completed.
     */
    void request_drain();

    /// Hard stop: close every connection (dropping queued work),
    /// stop the loop, and join. Idempotent.
    void stop();

    /// Blocks until the event loop exited (after `request_drain`,
    /// `stop`, or a fatal loop error) and joins the thread.
    void wait();

  private:
    struct Conn;

    void event_loop();
    void accept_ready();
    void read_ready(const std::shared_ptr<Conn>& conn);
    void handle_completions();
    /// First-line protocol sniff: serves HTTP scrapes, greets
    /// line-protocol sessions, then forwards to `enqueue_command`.
    void dispatch_line(const std::shared_ptr<Conn>& conn,
                       std::string line);
    /// Answers one `GET`/`HEAD` request line and schedules the close.
    void serve_http(const std::shared_ptr<Conn>& conn,
                    const std::string& request_line);
    void enqueue_command(const std::shared_ptr<Conn>& conn,
                         std::string line);
    void pump(const std::shared_ptr<Conn>& conn);
    void send_text(const std::shared_ptr<Conn>& conn,
                   const std::string& text);
    void flush(const std::shared_ptr<Conn>& conn);
    void close_conn(const std::shared_ptr<Conn>& conn);
    void check_timeouts();
    void begin_drain();
    void counter(const char* name);

    Service& service_;
    ServerOptions options_;

    int listen_fd_ = -1;
    int epoll_fd_ = -1;
    int wake_fd_ = -1;
    int port_ = 0;

    std::thread loop_thread_;
    std::atomic<bool> running_{false};
    std::atomic<bool> drain_requested_{false};
    std::atomic<bool> stop_requested_{false};
    bool draining_ = false;  ///< event-loop only
    std::chrono::steady_clock::time_point drain_deadline_;

    std::unordered_map<int, std::shared_ptr<Conn>> conns_;
    int inflight_ = 0;  ///< queued + executing commands (loop only)

    /// Finished command results, handed from workers to the loop.
    struct Completion
    {
        std::shared_ptr<Conn> conn;
        std::string output;
        bool quit = false;
        double ms = 0.0;
        int compiles = 0;    ///< requests the command drove
        int cache_hits = 0;  ///< of those, answered by the cache
    };
    std::mutex done_mutex_;
    std::vector<Completion> done_;

    std::unique_ptr<util::ThreadPool> workers_;

    EventLog event_log_;
    std::uint64_t next_conn_id_ = 1;  ///< event-log correlation (loop only)

    std::mutex lifecycle_mutex_;  ///< guards start/stop/wait/join
};

}  // namespace caqr::serve

#endif  // CAQR_SERVICE_SERVER_H
