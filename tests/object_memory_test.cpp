// Per-object memory budget of the streaming engine: the heap bytes and
// the live allocations one first-touched object adds to the object table,
// for the benchmarked component pair drwp(alpha=0.3) × last_gap on 10
// servers with the streaming lower bound on.
//
// Allocations are counted by replacing the global operator new/delete in
// this executable; heap bytes come from glibc's mallinfo2 (in-use bytes
// of every arena plus mmapped blocks), so they include malloc's own
// per-chunk overhead. Both are skipped under sanitizers, whose
// allocators neither count through mallinfo2 nor tolerate a replaced
// operator new.
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "core/drwp.hpp"
#include "engine/engine.hpp"
#include "predictor/last_gap.hpp"
#include "trace/event_log.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define REPL_MEMORY_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define REPL_MEMORY_TEST_SANITIZED 1
#endif
#endif

namespace {

std::atomic<std::int64_t> g_live_allocations{0};

}  // namespace

#ifndef REPL_MEMORY_TEST_SANITIZED

void* operator new(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  g_live_allocations.fetch_add(1, std::memory_order_relaxed);
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  g_live_allocations.fetch_sub(1, std::memory_order_relaxed);
  std::free(p);
}

void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept {
  ::operator delete(p);
}

#endif

namespace repl {
namespace {

/// Ceilings pinned from a measurement of the current layout (x86-64,
/// glibc 2.36, Release) with 5% headroom: 8 allocations and 1342.5 B per
/// object. The layout with an expiry heap, a whole result per object and
/// three per-server recorder vectors measured 12 allocations and 1886.5 B.
constexpr double kMaxAllocationsPerObject = 8.4;
constexpr double kMaxBytesPerObject = 1409.0;

constexpr int kServers = 10;

std::size_t heap_in_use() {
#if defined(__GLIBC__)
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
#else
  return 0;
#endif
}

/// One event each for objects [first, first + count), in time order.
std::vector<LogEvent> first_touches(std::uint64_t first, std::size_t count,
                                    double start_time) {
  std::vector<LogEvent> events;
  events.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    LogEvent event;
    event.time = start_time + static_cast<double>(i) * 1e-3;
    event.object = first + i;
    event.server = static_cast<std::uint32_t>((first + i) % kServers);
    events.push_back(event);
  }
  return events;
}

#if defined(REPL_MEMORY_TEST_SANITIZED) || !defined(__GLIBC__) || \
    !defined(__x86_64__)
constexpr bool kPinnedPlatform = false;
#else
constexpr bool kPinnedPlatform = true;
#endif

TEST(EngineMemory, PerObjectStateBudget) {
  if (!kPinnedPlatform) {
    GTEST_SKIP() << "pinned for glibc on x86-64 without sanitizers";
  }
  constexpr std::size_t kObjects = 20000;
  SystemConfig config;
  config.num_servers = kServers;
  config.transfer_cost = 10.0;
  EngineOptions options;
  options.num_threads = 1;
  options.num_shards = 64;
  StreamingEngine engine(
      config, options,
      [](const EngineObjectContext&) -> PolicyPtr {
        return std::make_unique<DrwpPolicy>(0.3);
      },
      [](const EngineObjectContext&) -> PredictorPtr {
        return std::make_unique<LastGapPredictor>(kServers);
      });

  // Warm up with as many objects as are measured, so the shard inboxes
  // and hash tables already hold their steady-state capacity.
  const std::vector<LogEvent> warm = first_touches(0, kObjects, 1.0);
  const std::vector<LogEvent> measured =
      first_touches(kObjects, kObjects, 1000.0);
  const std::vector<LogEvent> again =
      first_touches(kObjects, kObjects, 2000.0);
  engine.ingest(warm);

  const std::int64_t allocations_before = g_live_allocations.load();
  const std::size_t bytes_before = heap_in_use();
  engine.ingest(measured);
  const std::int64_t allocations_after = g_live_allocations.load();
  const std::size_t bytes_after = heap_in_use();
  ASSERT_EQ(engine.object_count(), 2 * kObjects);

  // A second event per object finds its state in place: nothing new
  // stays allocated.
  engine.ingest(again);
  const std::int64_t allocations_again = g_live_allocations.load();

  const double allocations =
      static_cast<double>(allocations_after - allocations_before) /
      static_cast<double>(kObjects);
  const double bytes = (static_cast<double>(bytes_after) -
                        static_cast<double>(bytes_before)) /
                       static_cast<double>(kObjects);
  std::cout << "per object: " << allocations << " allocations, " << bytes
            << " B\n";
  EXPECT_LE(allocations, kMaxAllocationsPerObject);
  EXPECT_LE(bytes, kMaxBytesPerObject);
  EXPECT_EQ(allocations_again, allocations_after);
}

}  // namespace
}  // namespace repl
