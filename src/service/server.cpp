#include "service/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string_view>

namespace caqr::serve {

namespace {

using Clock = std::chrono::steady_clock;

double
ms_since(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

/// Verdict of a finished response block: did its final line say `ok`?
/// Empty output (blank/comment input) counts as ok.
bool
block_ok(const std::string& output)
{
    if (output.empty()) return true;
    std::size_t end = output.size();
    if (output[end - 1] == '\n') --end;
    std::size_t begin = 0;
    if (end > 0) {
        const auto newline = output.rfind('\n', end - 1);
        if (newline != std::string::npos) begin = newline + 1;
    }
    const std::string_view line(output.data() + begin, end - begin);
    return line == "ok" || line.rfind("ok ", 0) == 0;
}

}  // namespace

/// One client connection. `proto` is touched only by the single
/// worker executing this session's current command; every other field
/// belongs to the event loop.
struct Server::Conn
{
    Conn(Service& service, const SessionOptions& options,
         std::size_t max_line_bytes)
        : lines(max_line_bytes), proto(service, options) {}

    int fd = -1;
    std::uint64_t id = 0;           ///< event-log correlation id
    bool greeted = false;           ///< first line seen, protocol known
    LineBuffer lines;
    std::string out;                ///< unflushed response bytes
    std::deque<std::string> queue;  ///< commands awaiting execution
    bool busy = false;              ///< a worker runs a command now
    bool want_write = false;        ///< EPOLLOUT armed
    bool reading = true;            ///< EPOLLIN armed
    bool eof = false;               ///< client half-closed
    bool close_when_flushed = false;
    bool closed = false;
    Clock::time_point last_activity = Clock::now();
    Clock::time_point cmd_start;  ///< current command, set at dispatch
    Session proto;
};

Server::Server(Service& service, ServerOptions options)
    : service_(service), options_(std::move(options))
{
    // Created eagerly so request_drain() is safe from a signal
    // handler at any point in the server's lifetime.
    wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
}

Server::~Server()
{
    stop();
    // Workers still draining reference done_/wake_fd_; retire them
    // before the fds go away.
    workers_.reset();
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
}

util::Status
Server::start()
{
    std::lock_guard<std::mutex> lock(lifecycle_mutex_);
    if (running_.load() || loop_thread_.joinable()) {
        return util::Status::invalid_argument("server already started");
    }
    if (wake_fd_ < 0) {
        return util::Status::io_error("eventfd: " +
                                      std::string(std::strerror(errno)));
    }
    if (auto opened = event_log_.open(options_.event_log_path);
        !opened.ok()) {
        return opened;
    }

    listen_fd_ = ::socket(AF_INET,
                          SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) {
        return util::Status::io_error("socket: " +
                                      std::string(std::strerror(errno)));
    }
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
    if (::inet_pton(AF_INET, options_.bind_address.c_str(),
                    &addr.sin_addr) != 1) {
        ::close(listen_fd_);
        listen_fd_ = -1;
        return util::Status::invalid_argument("bad bind address '" +
                                              options_.bind_address + "'");
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 128) != 0) {
        const std::string why = std::strerror(errno);
        ::close(listen_fd_);
        listen_fd_ = -1;
        return util::Status::io_error("bind/listen " +
                                      options_.bind_address + ":" +
                                      std::to_string(options_.port) +
                                      ": " + why);
    }
    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                  &bound_len);
    port_ = ntohs(bound.sin_port);

    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
        return util::Status::io_error("epoll_create1: " +
                                      std::string(std::strerror(errno)));
    }
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.fd = listen_fd_;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &event);
    event.data.fd = wake_fd_;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &event);

    workers_ = std::make_unique<util::ThreadPool>(
        util::ThreadPool::resolve_threads(options_.num_workers));
    drain_requested_.store(false);
    stop_requested_.store(false);
    running_.store(true);
    loop_thread_ = std::thread([this] { event_loop(); });
    return {};
}

void
Server::request_drain()
{
    // Async-signal-safe: one atomic store and one write(2).
    drain_requested_.store(true, std::memory_order_release);
    const std::uint64_t one = 1;
    [[maybe_unused]] const auto n = ::write(wake_fd_, &one, sizeof(one));
}

void
Server::stop()
{
    stop_requested_.store(true, std::memory_order_release);
    const std::uint64_t one = 1;
    [[maybe_unused]] const auto n = ::write(wake_fd_, &one, sizeof(one));
    wait();
}

void
Server::wait()
{
    std::lock_guard<std::mutex> lock(lifecycle_mutex_);
    if (loop_thread_.joinable()) loop_thread_.join();
}

void
Server::counter(const char* name)
{
    service_.metrics().add(name, 1.0);
}

void
Server::event_loop()
{
    std::vector<epoll_event> events(64);
    for (;;) {
        if (stop_requested_.load(std::memory_order_acquire)) break;
        if (drain_requested_.load(std::memory_order_acquire) &&
            !draining_) {
            begin_drain();
        }
        if (draining_) {
            if (conns_.empty()) break;
            if (Clock::now() >= drain_deadline_) break;
        }

        const int n = ::epoll_wait(epoll_fd_, events.data(),
                                   static_cast<int>(events.size()), 100);
        if (n < 0) {
            if (errno == EINTR) continue;
            break;
        }
        for (int i = 0; i < n; ++i) {
            const int fd = events[i].data.fd;
            if (fd == wake_fd_) {
                std::uint64_t drained = 0;
                while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
                }
                continue;
            }
            if (fd == listen_fd_ && listen_fd_ >= 0) {
                accept_ready();
                continue;
            }
            auto it = conns_.find(fd);
            if (it == conns_.end()) continue;  // closed this iteration
            auto conn = it->second;
            if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
                close_conn(conn);
                continue;
            }
            if ((events[i].events & EPOLLOUT) != 0) flush(conn);
            if (!conn->closed && (events[i].events & EPOLLIN) != 0 &&
                conn->reading) {
                read_ready(conn);
            }
        }
        handle_completions();
        check_timeouts();

        // Live transport gauges, refreshed on every loop tick (the
        // epoll timeout bounds staleness to ~100 ms even when idle).
        service_.metrics().set_gauge("server.queue_depth",
                                     static_cast<double>(inflight_));
        service_.metrics().set_gauge(
            "server.active_sessions",
            static_cast<double>(conns_.size()));
    }

    // Loop exit (stop, drain finished, or drain deadline): tear down
    // whatever is left.
    std::vector<std::shared_ptr<Conn>> leftover;
    leftover.reserve(conns_.size());
    for (const auto& [fd, conn] : conns_) leftover.push_back(conn);
    for (const auto& conn : leftover) close_conn(conn);
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
    }
    handle_completions();  // release worker references, keep counts sane
    if (draining_) event_log_.log("drain_end");
    running_.store(false);
}

void
Server::accept_ready()
{
    for (;;) {
        const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                                 SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) return;  // EAGAIN or a transient accept error

        if (static_cast<int>(conns_.size()) >= options_.max_sessions) {
            static constexpr char kBusy[] =
                "error busy too many sessions, retry later\n";
            [[maybe_unused]] const auto sent =
                ::send(fd, kBusy, sizeof(kBusy) - 1, MSG_NOSIGNAL);
            ::close(fd);
            counter("server.rejected_sessions");
            event_log_.log("reject_session");
            continue;
        }

        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        auto conn = std::make_shared<Conn>(service_, options_.session,
                                           options_.max_line_bytes);
        conn->fd = fd;
        conn->id = next_conn_id_++;
        conns_.emplace(fd, conn);
        epoll_event event{};
        event.events = EPOLLIN;
        event.data.fd = fd;
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event);
        counter("server.connections");
        event_log_.log("connect", {{"conn", conn->id}});
        // No greeting yet: the first line decides whether this is a
        // line-protocol session (greet, then serve) or a one-shot
        // HTTP scrape (no banner — it would corrupt the response).
    }
}

void
Server::read_ready(const std::shared_ptr<Conn>& conn)
{
    char buffer[4096];
    for (;;) {
        const auto n = ::recv(conn->fd, buffer, sizeof(buffer), 0);
        if (n > 0) {
            if (!conn->lines.append(buffer,
                                    static_cast<std::size_t>(n))) {
                // Unterminated line past the cap: answer once, stop
                // reading, and end the session after the flush.
                counter("server.overlong_lines");
                send_text(conn,
                          "error line exceeds " +
                              std::to_string(options_.max_line_bytes) +
                              " bytes, closing\n");
                conn->reading = false;
                inflight_ -= static_cast<int>(conn->queue.size());
                conn->queue.clear();
                conn->close_when_flushed = true;
                flush(conn);
                return;
            }
            while (auto line = conn->lines.next_line()) {
                if (conn->closed || conn->close_when_flushed) break;
                dispatch_line(conn, std::move(*line));
            }
            if (conn->closed || !conn->reading) return;
            continue;
        }
        if (n == 0) {
            // EOF. A final unterminated line is still a command —
            // mirror the stdin transport — then say goodbye once all
            // queued work finished.
            conn->eof = true;
            conn->reading = false;
            if (auto partial = conn->lines.take_partial();
                partial.has_value() && !partial->empty() &&
                !conn->close_when_flushed) {
                dispatch_line(conn, std::move(*partial));
            }
            if (!conn->closed) {
                pump(conn);
                flush(conn);
            }
            return;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        close_conn(conn);
        return;
    }
}

void
Server::dispatch_line(const std::shared_ptr<Conn>& conn,
                      std::string line)
{
    if (!conn->greeted) {
        conn->greeted = true;
        if (line.rfind("GET ", 0) == 0 || line.rfind("HEAD ", 0) == 0) {
            serve_http(conn, line);
            return;
        }
        // A line-protocol session: the banner answers the connection
        // now that the sniff settled the protocol, ahead of the first
        // command's own response block.
        send_text(conn, Session::greeting(options_.session));
    }
    enqueue_command(conn, std::move(line));
}

void
Server::serve_http(const std::shared_ptr<Conn>& conn,
                   const std::string& request_line)
{
    conn->last_activity = Clock::now();
    const bool head_only = request_line.rfind("HEAD ", 0) == 0;
    // Path = second token of `GET /path HTTP/1.x`, query stripped.
    const auto path_begin = request_line.find(' ') + 1;
    auto path_end = request_line.find(' ', path_begin);
    if (path_end == std::string::npos) path_end = request_line.size();
    std::string path =
        request_line.substr(path_begin, path_end - path_begin);
    if (const auto query = path.find('?'); query != std::string::npos) {
        path.erase(query);
    }

    int status = 200;
    std::string content_type = "text/plain; charset=utf-8";
    std::string body;
    if (path == "/metrics") {
        // The Prometheus text-exposition content type scrapers expect.
        content_type = "text/plain; version=0.0.4; charset=utf-8";
        body = prometheus_text(service_.metrics_snapshot());
    } else if (path == "/healthz") {
        status = draining_ ? 503 : 200;
        body = draining_ ? "draining\n" : "ok\n";
    } else if (path == "/varz") {
        content_type = "application/json";
        body = varz_json(service_.metrics_snapshot(), draining_);
    } else {
        status = 404;
        body = "not found\n";
    }

    counter("server.http_requests");
    event_log_.log("http", {{"conn", conn->id},
                            {"path", path},
                            {"status", status}});

    send_text(conn, http_response(status, content_type, body, head_only));
    // One request per connection: ignore the header lines still in
    // flight and close once the response drained.
    conn->reading = false;
    conn->close_when_flushed = true;
    flush(conn);
}

void
Server::enqueue_command(const std::shared_ptr<Conn>& conn,
                        std::string line)
{
    conn->last_activity = Clock::now();
    counter("server.requests");
    if (event_log_.enabled()) {
        event_log_.log("request",
                       {{"conn", conn->id},
                        {"cmd", line.substr(0, line.find(' '))}});
    }

    // Admission control: reject instead of queueing without bound.
    // Rejections are answered immediately, so a pipelining client can
    // see an `error busy` ahead of earlier commands' responses.
    const bool server_full = inflight_ >= options_.global_queue_limit;
    // The session limit counts commands queued *behind* the executing
    // one; an idle session always admits the command it can run now.
    const bool session_full =
        conn->busy && static_cast<int>(conn->queue.size()) >=
                          options_.session_queue_limit;
    if (draining_ || server_full || session_full) {
        counter("server.rejected_busy");
        event_log_.log("reject_busy",
                       {{"conn", conn->id},
                        {"reason", draining_      ? "draining"
                                   : server_full ? "server"
                                                 : "session"}});
        send_text(conn,
                  draining_ ? "error busy server draining\n"
                  : server_full
                      ? "error busy server at capacity, retry\n"
                      : "error busy session queue full, retry\n");
        flush(conn);
        return;
    }

    conn->queue.push_back(std::move(line));
    ++inflight_;
    pump(conn);
}

void
Server::pump(const std::shared_ptr<Conn>& conn)
{
    if (conn->closed || conn->busy) return;
    if (!conn->queue.empty()) {
        std::string line = std::move(conn->queue.front());
        conn->queue.pop_front();
        conn->busy = true;
        conn->cmd_start = Clock::now();
        workers_->submit([this, conn, line = std::move(line)] {
            Session::Result result = conn->proto.handle_line(line);
            {
                std::lock_guard<std::mutex> lock(done_mutex_);
                done_.push_back({conn, std::move(result.output),
                                 result.quit, 0.0, result.compiles,
                                 result.cache_hits});
            }
            const std::uint64_t one = 1;
            [[maybe_unused]] const auto n =
                ::write(wake_fd_, &one, sizeof(one));
        });
        return;
    }
    if ((conn->eof || draining_) && !conn->close_when_flushed) {
        send_text(conn, "ok bye\n");
        conn->close_when_flushed = true;
    }
}

void
Server::handle_completions()
{
    std::vector<Completion> batch;
    {
        std::lock_guard<std::mutex> lock(done_mutex_);
        batch.swap(done_);
    }
    for (auto& done : batch) {
        --inflight_;
        if (done.conn->closed) continue;  // disconnected mid-request
        const double ms = ms_since(done.conn->cmd_start);
        service_.metrics().observe("server.request_ms", ms);
        if (event_log_.enabled()) {
            event_log_.log("done",
                           {{"conn", done.conn->id},
                            {"ms", ms},
                            {"ok", block_ok(done.output)},
                            {"compiles", done.compiles},
                            {"cache_hits", done.cache_hits}});
        }
        done.conn->busy = false;
        done.conn->last_activity = Clock::now();
        send_text(done.conn, done.output);
        if (done.quit) {
            // The client is leaving; anything it pipelined after
            // `quit` is dropped.
            inflight_ -= static_cast<int>(done.conn->queue.size());
            done.conn->queue.clear();
            done.conn->close_when_flushed = true;
        } else {
            pump(done.conn);
        }
        flush(done.conn);
    }
}

void
Server::send_text(const std::shared_ptr<Conn>& conn,
                  const std::string& text)
{
    if (conn->closed) return;
    conn->out += text;
    if (conn->out.size() > options_.max_output_bytes) {
        // The client stopped reading; holding its backlog hostages
        // the server's memory, so the session ends now.
        counter("server.slow_readers");
        close_conn(conn);
    }
}

void
Server::flush(const std::shared_ptr<Conn>& conn)
{
    if (conn->closed) return;
    while (!conn->out.empty()) {
        const auto n = ::send(conn->fd, conn->out.data(),
                              conn->out.size(), MSG_NOSIGNAL);
        if (n > 0) {
            conn->out.erase(0, static_cast<std::size_t>(n));
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            if (!conn->want_write) {
                conn->want_write = true;
                epoll_event event{};
                event.events = EPOLLOUT |
                               (conn->reading ? EPOLLIN : 0u);
                event.data.fd = conn->fd;
                ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &event);
            }
            return;
        }
        if (n < 0 && errno == EINTR) continue;
        close_conn(conn);
        return;
    }
    if (conn->want_write) {
        conn->want_write = false;
        epoll_event event{};
        event.events = conn->reading ? EPOLLIN : 0u;
        event.data.fd = conn->fd;
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &event);
    }
    if (conn->close_when_flushed && !conn->busy &&
        conn->queue.empty()) {
        close_conn(conn);
    }
}

void
Server::close_conn(const std::shared_ptr<Conn>& conn)
{
    if (conn->closed) return;
    conn->closed = true;
    inflight_ -= static_cast<int>(conn->queue.size());
    conn->queue.clear();
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
    ::close(conn->fd);
    conns_.erase(conn->fd);
    conn->fd = -1;
    counter("server.disconnects");
    event_log_.log("disconnect", {{"conn", conn->id}});
}

void
Server::check_timeouts()
{
    if (options_.idle_timeout_ms <= 0 || draining_) return;
    const auto now = Clock::now();
    const auto limit = std::chrono::milliseconds(options_.idle_timeout_ms);
    std::vector<std::shared_ptr<Conn>> idle;
    for (const auto& [fd, conn] : conns_) {
        // Busy or queued sessions are working, not idle. A session
        // trickling bytes without ever completing a line never
        // refreshes last_activity, so slow-loris writers land here.
        if (!conn->busy && conn->queue.empty() &&
            !conn->close_when_flushed &&
            now - conn->last_activity > limit) {
            idle.push_back(conn);
        }
    }
    for (const auto& conn : idle) {
        counter("server.timeouts");
        event_log_.log("timeout", {{"conn", conn->id}});
        send_text(conn, "error idle timeout, closing\n");
        if (!conn->closed) {
            flush(conn);
            if (!conn->closed) close_conn(conn);
        }
    }
}

void
Server::begin_drain()
{
    draining_ = true;
    event_log_.log("drain_begin");
    drain_deadline_ =
        Clock::now() + std::chrono::milliseconds(options_.drain_grace_ms);
    if (listen_fd_ >= 0) {
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
        ::close(listen_fd_);
        listen_fd_ = -1;
    }
    std::vector<std::shared_ptr<Conn>> open;
    open.reserve(conns_.size());
    for (const auto& [fd, conn] : conns_) open.push_back(conn);
    for (const auto& conn : open) {
        // No further commands; in-flight and queued work still
        // completes and flushes before the goodbye.
        conn->reading = false;
        epoll_event event{};
        event.events = conn->want_write ? EPOLLOUT : 0u;
        event.data.fd = conn->fd;
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &event);
        pump(conn);
        flush(conn);
    }
}

}  // namespace caqr::serve
