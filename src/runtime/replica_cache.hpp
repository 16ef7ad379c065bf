// Per-thread reusable model replicas for the simulation loop.
//
// The T×K×E training loop used to clone a full model (layer objects, weight
// tensors, gradient tensors) for every client on every group round. The
// cache replaces that with one persistent replica per worker thread: a
// global round performs O(threads) model constructions per process lifetime
// instead of O(clients) per round, and the replica's gradient / activation /
// optimizer-adjacent buffers stay warm across clients. Callers reset state
// between uses via set_flat_parameters — no layer reconstruction.
//
// Header-only template: runtime/ sits below nn/ in the dependency order, so
// the cache cannot name nn::Model; any ModelT with a clone() const member
// works.
//
// Thread-safety (annotated; checked by the `groupfel_analyze` preset):
// `mu_` guards the prototype and the replica table. local() takes the mutex
// only to find or insert the calling thread's slot; the returned reference
// is then used lock-free. That is safe under ThreadPool::parallel_for
// because a loop body runs start to finish on one thread (helper threads
// only pick up whole iterations, never the remainder of another thread's
// body), and std::unordered_map is node-based so references survive
// rehashing.
#pragma once

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace groupfel::runtime {

template <typename ModelT>
class ModelReplicaCache {
 public:
  ModelReplicaCache() = default;
  explicit ModelReplicaCache(const ModelT& prototype) {
    set_prototype(prototype);
  }
  ModelReplicaCache(const ModelReplicaCache&) = delete;
  ModelReplicaCache& operator=(const ModelReplicaCache&) = delete;

  /// Installs (or replaces) the prototype and drops existing replicas.
  /// Replicas are lazily re-cloned from the new prototype on next use.
  void set_prototype(const ModelT& prototype) GF_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    prototype_ = prototype.clone();
    has_prototype_ = true;
    replicas_.clear();
  }

  [[nodiscard]] bool has_prototype() const GF_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return has_prototype_;
  }

  /// The calling thread's replica, cloned from the prototype on this
  /// thread's first use. Parameter and gradient state is whatever the
  /// previous user on this thread left behind — reset what you need (the
  /// trainer calls set_flat_parameters before every client).
  ModelT& local() GF_EXCLUDES(mu_) {
    const std::thread::id id = std::this_thread::get_id();
    util::MutexLock lock(mu_);
    if (!has_prototype_)
      throw std::logic_error("ModelReplicaCache::local: no prototype set");
    auto it = replicas_.find(id);
    if (it == replicas_.end()) {
      clones_.fetch_add(1, std::memory_order_relaxed);
      it = replicas_.emplace(id, prototype_.clone()).first;
    }
    return it->second;
  }

  // ---- introspection (tests / bench) ----
  /// Replica constructions over the cache's lifetime (excludes the
  /// prototype copy). Steady state adds zero: the end-to-end bench asserts
  /// this stays flat across rounds.
  [[nodiscard]] std::size_t clone_count() const noexcept {
    return clones_.load(std::memory_order_relaxed);
  }
  /// Threads currently holding a replica.
  [[nodiscard]] std::size_t replica_count() const GF_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return replicas_.size();
  }

 private:
  // Every worker locks mu_ once per client it trains and per evaluation
  // chunk. A line of its own keeps those writes from invalidating the
  // read-mostly fields an owner lays out next to the cache.
  alignas(64) mutable util::Mutex mu_;
  ModelT prototype_ GF_GUARDED_BY(mu_);
  bool has_prototype_ GF_GUARDED_BY(mu_) = false;
  std::unordered_map<std::thread::id, ModelT> replicas_ GF_GUARDED_BY(mu_);
  std::atomic<std::size_t> clones_{0};
};

}  // namespace groupfel::runtime
