// The four micro-benchmarks of the paper's evaluation (Section IV-B), all
// modeled on the Atlas repository versions:
//
//   persistent-array — one FASE, nested loop writing an int array (the
//                      paper's working-set / cache-size case study);
//   queue            — Michael & Scott's two-lock concurrent queue, made
//                      persistent, one FASE per operation;
//   hash             — chained hash table (single-threaded), FASE per insert;
//   linked-list      — sorted singly linked list, elements inserted in a
//                      perfect-shuffle (bit-reversal) order, multithreaded.
#include <mutex>
#include <string>

#include "common/barrier.hpp"
#include "common/rng.hpp"
#include "workloads/workload.hpp"

namespace nvc::workloads {

namespace {

// --- persistent-array --------------------------------------------------------

class PersistentArrayWorkload final : public Workload {
 public:
  std::string name() const override { return "persistent-array"; }
  std::string problem_size(const WorkloadParams& p) const override {
    return std::to_string(total_writes(p));
  }

  void run(PersistApi& api, const WorkloadParams& p) override {
    // Paper: inner loop writes elements 0..399 of an int array; the outer
    // loop repeats 2500 times; a single FASE wraps everything. The inner
    // working set is 400 ints = 25 or 26 cache lines.
    const std::size_t inner = 400;
    const std::size_t outer = p.full ? 2500 : 250;
    auto* array = static_cast<int*>(api.alloc(0, inner * sizeof(int)));

    ApiFase fase(api, 0);
    for (std::size_t rep = 0; rep < outer; ++rep) {
      for (std::size_t i = 0; i < inner; ++i) {
        api.store(0, array[i], static_cast<int>(rep + i));
        api.compute(0, 6);
      }
    }
  }

 private:
  static std::uint64_t total_writes(const WorkloadParams& p) {
    return 400ull * (p.full ? 2500 : 250);
  }
};

// --- queue --------------------------------------------------------------------

/// Michael & Scott two-lock queue (PODC'96, the blocking algorithm), with
/// persistent nodes and head/tail anchors.
class QueueWorkload final : public Workload {
 public:
  std::string name() const override { return "queue"; }
  std::string problem_size(const WorkloadParams& p) const override {
    return std::to_string(ops(p));
  }

  void run(PersistApi& api, const WorkloadParams& p) override {
    struct Node {
      std::uint64_t value;
      Node* next;
    };
    struct Anchors {
      alignas(kCacheLineSize) Node* head;
      alignas(kCacheLineSize) Node* tail;
    };

    auto* anchors = static_cast<Anchors*>(api.alloc(0, sizeof(Anchors)));
    auto* dummy = static_cast<Node*>(api.alloc(0, sizeof(Node)));
    {
      ApiFase fase(api, 0);
      api.store(0, dummy->value, std::uint64_t{0});
      api.store(0, dummy->next, static_cast<Node*>(nullptr));
      api.store(0, anchors->head, dummy);
      api.store(0, anchors->tail, dummy);
    }

    std::mutex head_lock;
    std::mutex tail_lock;
    const std::uint64_t per_thread = ops(p) / p.threads;

    ThreadTeam::run(p.threads, [&](std::size_t tid) {
      Rng rng(p.seed + tid * 1000003);
      for (std::uint64_t i = 0; i < per_thread; ++i) {
        // Enqueue.
        auto* node = static_cast<Node*>(api.alloc(tid, sizeof(Node)));
        {
          std::lock_guard<std::mutex> guard(tail_lock);
          ApiFase fase(api, tid);
          api.store(tid, node->value, rng());
          api.store(tid, node->next, static_cast<Node*>(nullptr));
          api.store(tid, anchors->tail->next, node);
          api.store(tid, anchors->tail, node);
          api.compute(tid, 24);
        }
        // Dequeue every other operation to keep the queue bounded.
        if ((i & 1u) != 0) {
          std::lock_guard<std::mutex> guard(head_lock);
          Node* old_head = anchors->head;
          Node* new_head = old_head->next;
          if (new_head != nullptr) {
            ApiFase fase(api, tid);
            api.store(tid, anchors->head, new_head);
            api.compute(tid, 12);
          }
        }
      }
    });
  }

 private:
  static std::uint64_t ops(const WorkloadParams& p) {
    return p.full ? 400000 : 40000;
  }
};

// --- hash ----------------------------------------------------------------------

/// Chained hash table modeled on the c-hashtable micro-benchmark the paper
/// cites: insert key/value pairs, occasional lookups and removals, one FASE
/// per mutation.
class HashWorkload final : public Workload {
 public:
  std::string name() const override { return "hash"; }
  std::string problem_size(const WorkloadParams& p) const override {
    return std::to_string(inserts(p));
  }

  void run(PersistApi& api, const WorkloadParams& p) override {
    struct Node {
      std::uint64_t key;
      std::uint64_t value;
      Node* next;
    };
    const std::size_t buckets = 1024;
    auto** table =
        static_cast<Node**>(api.alloc(0, buckets * sizeof(Node*)));
    {
      ApiFase fase(api, 0);
      for (std::size_t b = 0; b < buckets; ++b) {
        api.store(0, table[b], static_cast<Node*>(nullptr));
      }
    }

    Rng rng(p.seed);
    const std::uint64_t n = inserts(p);
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t key = rng.below(n * 2);
      const std::size_t b =
          static_cast<std::size_t>(splitmix64_mix(key)) & (buckets - 1);
      auto* node = static_cast<Node*>(api.alloc(0, sizeof(Node)));
      ApiFase fase(api, 0);
      api.store(0, node->key, key);
      api.store(0, node->value, key * 3 + 1);
      api.store(0, node->next, table[b]);
      api.store(0, table[b], node);
      api.compute(0, 30);
      // Every 8th mutation removes the bucket head again (delete path).
      if ((i & 7u) == 7u && table[b] != nullptr) {
        Node* head = table[b];
        api.store(0, table[b], head->next);
        api.compute(0, 10);
      }
    }
  }

 private:
  static std::uint64_t inserts(const WorkloadParams& p) {
    return p.full ? 40000 : 4000;
  }
};

// --- linked-list ----------------------------------------------------------------

/// Sorted singly linked list; N keys inserted in bit-reversal ("perfect
/// shuffle") order so successive insertions land far apart. Threads insert
/// disjoint key ranges under a shared lock (the Atlas benchmark uses a
/// global lock too — the FASE is the lock's critical section).
class LinkedListWorkload final : public Workload {
 public:
  std::string name() const override { return "linked-list"; }
  std::string problem_size(const WorkloadParams& p) const override {
    return std::to_string(elements(p));
  }

  void run(PersistApi& api, const WorkloadParams& p) override {
    struct Node {
      std::uint64_t key;
      Node* next;
    };

    auto** head_slot = static_cast<Node**>(api.alloc(0, sizeof(Node*)));
    {
      ApiFase fase(api, 0);
      api.store(0, *head_slot, static_cast<Node*>(nullptr));
    }

    const std::uint64_t n = elements(p);
    unsigned bits = 0;
    while ((1ull << bits) < n) ++bits;
    std::mutex list_lock;
    const std::uint64_t per_thread = n / p.threads;

    ThreadTeam::run(p.threads, [&](std::size_t tid) {
      for (std::uint64_t i = 0; i < per_thread; ++i) {
        const std::uint64_t seq = tid * per_thread + i;
        const std::uint64_t key = bit_reverse(seq, bits);
        auto* node = static_cast<Node*>(api.alloc(tid, sizeof(Node)));
        std::lock_guard<std::mutex> guard(list_lock);
        ApiFase fase(api, tid);

        Node** link = head_slot;
        std::uint64_t traversed = 0;
        while (*link != nullptr && (*link)->key < key) {
          link = &(*link)->next;
          ++traversed;
        }
        api.store(tid, node->key, key);
        api.store(tid, node->next, *link);
        api.store(tid, *link, node);
        api.compute(tid, 8 + traversed * 3);
      }
    });
  }

 private:
  static std::uint64_t elements(const WorkloadParams& p) {
    return p.full ? 10000 : 4000;
  }
  static std::uint64_t bit_reverse(std::uint64_t x, unsigned bits) {
    std::uint64_t r = 0;
    for (unsigned b = 0; b < bits; ++b) {
      r = (r << 1) | ((x >> b) & 1u);
    }
    return r;
  }
};

}  // namespace

std::unique_ptr<Workload> make_persistent_array() {
  return std::make_unique<PersistentArrayWorkload>();
}
std::unique_ptr<Workload> make_queue() {
  return std::make_unique<QueueWorkload>();
}
std::unique_ptr<Workload> make_hash() {
  return std::make_unique<HashWorkload>();
}
std::unique_ptr<Workload> make_linked_list() {
  return std::make_unique<LinkedListWorkload>();
}

}  // namespace nvc::workloads
