#include "spans.hpp"

#include <fstream>
#include <stdexcept>
#include <thread>

#include "util/json.hpp"

namespace servebench {

SpanRecorder::SpanRecorder() : epoch_(Clock::now()) {}

SpanRecorder::Thread& SpanRecorder::thread_state() {
  const std::thread::id key = std::this_thread::get_id();
  auto it = threads_.find(key);
  if (it == threads_.end()) {
    Thread fresh;
    fresh.tid = static_cast<std::uint32_t>(threads_.size() + 1);
    it = threads_.emplace(key, std::move(fresh)).first;
  }
  return it->second;
}

std::uint64_t SpanRecorder::open(const char* name) {
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  Thread& thread = thread_state();
  const std::uint64_t parent =
      thread.stack.empty() ? 0 : thread.stack.back().id;
  const std::uint64_t id = next_id_++;
  thread.stack.push_back(Open{name, id, parent, now, 0.0});
  return id;
}

void SpanRecorder::close(std::uint64_t id) noexcept {
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  Thread& thread = thread_state();
  // Scoped spans close innermost first; anything still open above `id`
  // is closed with it rather than left dangling.
  while (!thread.stack.empty()) {
    const Open span = thread.stack.back();
    thread.stack.pop_back();
    finish(span, thread.tid, now, thread);
    if (span.id == id) break;
  }
}

void SpanRecorder::add(const char* name, Clock::time_point start,
                       Clock::time_point end) {
  if (end < start) throw std::logic_error("span ends before it starts");
  std::lock_guard<std::mutex> lock(mu_);
  Thread& thread = thread_state();
  const std::uint64_t parent =
      thread.stack.empty() ? 0 : thread.stack.back().id;
  finish(Open{name, next_id_++, parent, start, 0.0}, thread.tid, end, thread);
}

void SpanRecorder::finish(const Open& span, std::uint32_t tid,
                          Clock::time_point end, Thread& thread) {
  const double duration = seconds_between(span.start, end);
  if (!thread.stack.empty()) thread.stack.back().child_s += duration;
  Row& row = rows_[span.name];
  row.name = span.name;
  ++row.count;
  row.total_s += duration;
  row.self_s += duration - span.child_s;
  std::size_t& kept = kept_[span.name];
  if (kept < kMaxRecordsPerName) {
    ++kept;
    records_.push_back(Record{span.name, span.id, span.parent, tid,
                              span.start, end});
  }
}

std::vector<SpanRecorder::Row> SpanRecorder::table() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Row> out;
  out.reserve(rows_.size());
  for (const auto& entry : rows_) out.push_back(entry.second);
  return out;
}

std::size_t SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto micros = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  };
  repl::JsonWriter json;
  json.begin_object();
  json.key("displayTimeUnit").value("ms");
  json.key("traceEvents").begin_array();
  for (const Record& r : records_) {
    json.begin_object();
    json.key("name").value(r.name);
    json.key("ph").value("X");
    json.key("pid").value(1);
    json.key("tid").value(static_cast<std::uint64_t>(r.tid));
    json.key("ts").value(micros(r.start));
    json.key("dur").value(micros(r.end) - micros(r.start));
    json.key("args").begin_object();
    json.key("id").value(r.id);
    json.key("parent").value(r.parent);
    json.end_object();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << json.str() << "\n";
  out.close();
  if (!out) throw std::runtime_error("cannot write trace " + path);
  return records_.size();
}

}  // namespace servebench
