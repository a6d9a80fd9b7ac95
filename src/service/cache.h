/**
 * @file
 * The service layer's two cache tiers: content-addressed and
 * skeleton-keyed keys, and the one bounded LRU both tiers use.
 *
 * Repeated production traffic is highly redundant — the same hot
 * circuits arrive over and over — while a CaQR compile costs
 * milliseconds to seconds. The compile tier maps a *content-addressed*
 * key (circuit content + canonicalized options, see
 * `request_cache_key`) to the finished `CompileReport`, so a hot
 * request is answered by a map lookup instead of a pipeline run. The
 * template tier maps a skeleton key (`template_cache_key`) to a frozen
 * `CompiledTemplate` for compile-once / bind-many sweeps.
 *
 * Keying rules:
 *  - The key is derived from the request's input **content** (inline
 *    QASM text, file bytes, serialized circuit, or commuting spec),
 *    never from the file path — two paths to identical bytes share an
 *    entry, and an edited file misses. A file is read once per request
 *    and the key and the compile share those bytes, so a report is
 *    always stored under the content it was compiled from.
 *  - Options are serialized as sorted `key=value` lines
 *    (`canonicalize_option_lines`), so the order in which a caller
 *    populated them can never split the cache.
 *  - Execution knobs that provably do not change the result —
 *    `num_threads` (bit-identical guarantee) and the request `name` —
 *    are excluded.
 *
 * Both tiers are an `Lru<V>`, which counts only through the
 * `util::metrics::Registry` it is given: `service.cache.{hit,miss,
 * evict}` and `service.template.{hit,miss,evict}`.
 */
#ifndef CAQR_SERVICE_CACHE_H
#define CAQR_SERVICE_CACHE_H

#include <cstddef>
#include <list>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "service/service.h"
#include "util/metrics.h"
#include "util/status.h"

namespace caqr {

/// Sorts `key=value` option lines into the one canonical order and
/// joins them with '\n'. Input order never affects the result, so two
/// callers that assembled semantically identical requests in different
/// field orders produce byte-identical serializations.
std::string canonicalize_option_lines(std::vector<std::string> lines);

/**
 * The QASM source of @p request: its inline text, or the bytes of its
 * `qasm_file` read into @p storage (kNotFound / kIoError as
 * `qasm::read_file`). Empty for circuit and commuting inputs. The
 * service reads a request's file here once: its cache key and its load
 * stage share these bytes.
 */
util::StatusOr<std::string_view> read_qasm_source(
    const CompileRequest& request, std::string& storage);

/**
 * Content-addressed cache key for @p request: the input content (@p qasm,
 * the request's source from `read_qasm_source`, for a QASM input), the
 * canonical backend key (aliases like "mumbai" and "FakeMumbai"
 * collapse), the strategy, and every result-affecting option in
 * canonical order. Requests that differ only in `num_threads` or
 * `name` share a key. kInvalidArgument unless the request names
 * exactly one input.
 */
util::StatusOr<std::string> request_cache_key(const CompileRequest& request,
                                              std::string_view qasm);

/// `request_cache_key` over the source `read_qasm_source` returns; an
/// unreadable file fails with its kNotFound / kIoError.
util::StatusOr<std::string> request_cache_key(
    const CompileRequest& request);

/**
 * Skeleton fingerprint for template compilation (`compile_template`):
 * the same canonical option lines as `request_cache_key`, but the
 * input is serialized by *structure*, masking bound parameter values —
 * circuits print through `to_qasm_template` (parameter names instead
 * of current angles), commuting specs flatten to nodes/layers plus
 * sorted edges with no angles. Two requests that differ only in
 * rotation angles carried by named parameters (or commuting γ/β) share
 * a skeleton, so a hot template survives across bind sessions in the
 * template tier. A QASM input is kInvalidArgument: `compile_template`
 * parses it once and keys the parsed circuit.
 */
util::StatusOr<std::string> template_cache_key(
    const CompileRequest& request);

/**
 * Bounded, thread-safe LRU map from string key to @p V, where `V` is a
 * nullable handle (`std::shared_ptr<const T>`): a null `V` means "no
 * entry". `get` refreshes recency; `put` drops the least-recently-used
 * entries once the capacity is exceeded.
 *
 * Values are handed out, and dropped values handed back, by copy of
 * the handle, so the caller copies or destroys the payload outside the
 * lock, and a holder of an evicted value keeps it alive.
 *
 * Counts only by adding `<prefix>.hit`, `<prefix>.miss` and
 * `<prefix>.evict` to the registry it was built with.
 */
template <typename V>
class Lru
{
  public:
    /// @p capacity must be at least 1 (a disabled tier is no `Lru` at
    /// all). @p registry must outlive the cache.
    Lru(std::size_t capacity, util::metrics::Registry& registry,
        const std::string& prefix)
        : capacity_(capacity),
          registry_(registry),
          hit_(prefix + ".hit"),
          miss_(prefix + ".miss"),
          evict_(prefix + ".evict")
    {
    }

    /// The value under @p key, refreshing its recency, or a null `V`
    /// on a miss.
    V get(const std::string& key)
    {
        V value{};
        {
            std::lock_guard<std::mutex> lock(mutex_);
            const auto it = index_.find(key);
            if (it != index_.end()) {
                lru_.splice(lru_.begin(), lru_, it->second);
                value = it->second->second;
            }
        }
        registry_.add(value ? hit_ : miss_, 1.0);
        return value;
    }

    /// Stores @p value under @p key as the most recent entry. Returns
    /// every value it dropped: the one a same-key `put` replaces
    /// (not an eviction) and the least-recently-used ones evicted to
    /// stay within capacity.
    std::vector<V> put(const std::string& key, V value)
    {
        std::vector<V> dropped;
        std::size_t evicted = 0;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            const auto it = index_.find(key);
            if (it != index_.end()) {
                dropped.push_back(
                    std::exchange(it->second->second, std::move(value)));
                lru_.splice(lru_.begin(), lru_, it->second);
                return dropped;
            }
            lru_.emplace_front(key, std::move(value));
            index_.emplace(key, lru_.begin());
            for (; lru_.size() > capacity_; ++evicted) {
                dropped.push_back(std::move(lru_.back().second));
                index_.erase(lru_.back().first);
                lru_.pop_back();
            }
        }
        if (evicted > 0) {
            registry_.add(evict_, static_cast<double>(evicted));
        }
        return dropped;
    }

  private:
    using Entry = std::pair<std::string, V>;

    std::mutex mutex_;
    const std::size_t capacity_;
    util::metrics::Registry& registry_;
    const std::string hit_, miss_, evict_;
    std::list<Entry> lru_;  ///< front = most recently used
    std::unordered_map<std::string, typename std::list<Entry>::iterator>
        index_;
};

}  // namespace caqr

#endif  // CAQR_SERVICE_CACHE_H
