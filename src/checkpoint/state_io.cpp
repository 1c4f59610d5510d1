#include "checkpoint/state_io.hpp"

#include <bit>
#include <stdexcept>

#include "codec/endian.hpp"

namespace repl {

// Fixed-width fields grow the buffer once and store in place, rather
// than pushing byte by byte.
void StateWriter::u32(std::uint32_t v) {
  const std::size_t at = buffer_.size();
  buffer_.resize(at + 4);
  store_le32(buffer_.data() + at, v);
}

void StateWriter::u64(std::uint64_t v) {
  const std::size_t at = buffer_.size();
  buffer_.resize(at + 8);
  store_le64(buffer_.data() + at, v);
}

void StateWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void StateWriter::str(const std::string& v) {
  u32(static_cast<std::uint32_t>(v.size()));
  buffer_.insert(buffer_.end(), v.begin(), v.end());
}

std::string StateReader::context() const {
  return is_object_ ? "object " + std::to_string(object_id_) : context_;
}

void StateReader::fail(const std::string& what) const {
  throw std::runtime_error("checkpoint: " + context() + ": " + what);
}

const unsigned char* StateReader::take(std::size_t n) {
  if (size_ - pos_ < n) {
    fail("payload underflow (need " + std::to_string(n) + " bytes at offset " +
         std::to_string(pos_) + " of " + std::to_string(size_) + ")");
  }
  const unsigned char* p = data_ + pos_;
  pos_ += n;
  return p;
}

std::uint8_t StateReader::u8() { return *take(1); }

std::uint32_t StateReader::u32() { return load_le32(take(4)); }

std::uint64_t StateReader::u64() { return load_le64(take(8)); }

double StateReader::f64() { return std::bit_cast<double>(u64()); }

bool StateReader::boolean() {
  const std::uint8_t v = u8();
  if (v > 1) fail("boolean field holds " + std::to_string(v));
  return v == 1;
}

std::string StateReader::str() {
  const std::uint32_t n = u32();
  const unsigned char* p = take(n);
  return std::string(reinterpret_cast<const char*>(p), n);
}

void StateReader::expect_end() const {
  if (pos_ != size_) {
    throw std::runtime_error("checkpoint: " + context() + ": " +
                             std::to_string(size_ - pos_) +
                             " trailing bytes after payload");
  }
}

}  // namespace repl
