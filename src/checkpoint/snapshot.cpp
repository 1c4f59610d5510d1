#include "checkpoint/snapshot.hpp"

#include <bit>
#include <limits>
#include <stdexcept>

#include "codec/crc32.hpp"
#include "codec/endian.hpp"
#include "codec/word_codec.hpp"
#include "util/check.hpp"

#ifdef __unix__
#include <fcntl.h>
#include <unistd.h>
#endif

namespace repl {

namespace {

/// Sanity cap on the spec strings: a corrupt length field must not turn
/// into a multi-GB allocation.
constexpr std::size_t kMaxSpecBytes = std::size_t{1} << 16;

}  // namespace

void sync_path_best_effort(const std::string& path) {
#ifdef __unix__
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);  // best effort: durability, not correctness
    ::close(fd);
  }
#else
  (void)path;
#endif
}

SnapshotWriter::SnapshotWriter(const std::string& path,
                               const SnapshotHeader& header)
    : out_(path, std::ios::binary | std::ios::trunc),
      path_(path),
      header_(header) {
  if (!out_) {
    throw std::runtime_error("checkpoint " + path_ +
                             ": cannot open for writing");
  }
  header_.version = SnapshotHeader::kVersion;  // writers always emit v3
  REPL_REQUIRE_MSG(header_.codec == SnapshotHeader::kCodecRaw ||
                       header_.codec == SnapshotHeader::kCodecWord,
                   "unknown snapshot codec " << header_.codec);
  unsigned char raw[SnapshotHeader::kSize] = {};
  store_le64(raw, SnapshotHeader::kMagic);
  store_le32(raw + 8, SnapshotHeader::kVersion);
  store_le32(raw + 12, header_.num_servers);
  store_le64(raw + 16, header_.num_objects);
  store_le64(raw + 24, header_.events_ingested);
  store_le64(raw + 32, header_.batches);
  store_le64(raw + 40, header_.base_seed);
  store_le64(raw + 48, std::bit_cast<std::uint64_t>(header_.last_batch_time));
  store_le32(raw + 56, header_.flags);
  out_.write(reinterpret_cast<const char*>(raw), SnapshotHeader::kSize);

  // Version-2 extension: log binding + component specs.
  unsigned char ext[SnapshotHeader::kExtensionSize];
  store_le64(ext, header_.log_hash);
  store_le64(ext + 8, header_.log_num_objects);
  store_le64(ext + 16, header_.log_num_events);
  out_.write(reinterpret_cast<const char*>(ext), sizeof(ext));
  const auto write_string = [this](const std::string& s) {
    REPL_REQUIRE(s.size() <= kMaxSpecBytes);
    unsigned char len[4];
    store_le32(len, static_cast<std::uint32_t>(s.size()));
    out_.write(reinterpret_cast<const char*>(len), sizeof(len));
    out_.write(s.data(), static_cast<std::streamsize>(s.size()));
  };
  write_string(header_.policy_spec);
  write_string(header_.predictor_spec);

  // Version-3 extension: the object-record payload codec.
  unsigned char codec_raw[4];
  store_le32(codec_raw, header_.codec);
  out_.write(reinterpret_cast<const char*>(codec_raw), sizeof(codec_raw));

  if (!out_) throw std::runtime_error("checkpoint " + path_ + ": header write failed");
  bytes_written_ = header_.encoded_size();
  open_ = true;
}

SnapshotWriter::~SnapshotWriter() = default;

void SnapshotWriter::add_object(std::uint64_t object_id,
                                const unsigned char* payload,
                                std::size_t size) {
  REPL_CHECK_MSG(open_, "add_object after close()");
  REPL_CHECK_MSG(objects_written_ < header_.num_objects,
                 "more object records than the header promises");
  REPL_CHECK_MSG(objects_written_ == 0 || object_id > last_id_,
                 "object records must have strictly increasing ids");
  REPL_REQUIRE_MSG(size <= SnapshotHeader::kMaxRecordBytes,
                   "object record of " << size
                                       << " bytes exceeds the record cap");
  last_id_ = object_id;
  ++objects_written_;

  const unsigned char* encoded = payload;
  std::size_t encoded_size = size;
  if (header_.codec == SnapshotHeader::kCodecWord) {
    packed_.clear();
    word_pack(payload, size, packed_);
    encoded = packed_.data();
    encoded_size = packed_.size();
  }
  // Guaranteed by the codec's expansion bound given the raw cap above;
  // anything this writer emits must pass the reader's length checks.
  REPL_CHECK(encoded_size <= SnapshotHeader::kMaxEncodedRecordBytes);
  unsigned char prefix[20];
  store_le64(prefix, object_id);
  store_le32(prefix + 8, static_cast<std::uint32_t>(encoded_size));
  store_le32(prefix + 12, static_cast<std::uint32_t>(size));
  std::uint32_t crc = crc32c_update(crc32c_init(), prefix, 16);
  crc = crc32c_final(crc32c_update(crc, encoded, encoded_size));
  store_le32(prefix + 16, crc);
  out_.write(reinterpret_cast<const char*>(prefix), sizeof(prefix));
  out_.write(reinterpret_cast<const char*>(encoded),
             static_cast<std::streamsize>(encoded_size));
  if (!out_) {
    throw std::runtime_error("checkpoint " + path_ + ": record write failed");
  }
  bytes_written_ += sizeof(prefix) + encoded_size;
}

void SnapshotWriter::close() {
  REPL_CHECK_MSG(open_, "close() called twice");
  open_ = false;
  REPL_CHECK_MSG(objects_written_ == header_.num_objects,
                 "snapshot holds " << objects_written_
                                   << " object records, header promises "
                                   << header_.num_objects);
  unsigned char footer[8];
  store_le64(footer, SnapshotHeader::kFooterMagic);
  out_.write(reinterpret_cast<const char*>(footer), sizeof(footer));
  out_.flush();
  if (!out_) throw std::runtime_error("checkpoint " + path_ + ": footer write failed");
  bytes_written_ += sizeof(footer);
  out_.close();
  if (out_.fail()) throw std::runtime_error("checkpoint " + path_ + ": close failed");
  // Push the bytes to stable storage before the caller renames this file
  // over the previous snapshot — otherwise a power loss can persist the
  // rename but not the data, destroying the last good checkpoint.
  sync_path_best_effort(path_);
}

SnapshotReader::SnapshotReader(const std::string& path)
    : in_(path, std::ios::binary), path_(path) {
  if (!in_) fail("cannot open for reading");
  unsigned char raw[SnapshotHeader::kSize];
  in_.read(reinterpret_cast<char*>(raw), SnapshotHeader::kSize);
  if (in_.gcount() != static_cast<std::streamsize>(SnapshotHeader::kSize)) {
    fail("truncated header");
  }
  if (load_le64(raw) != SnapshotHeader::kMagic) {
    fail("bad magic (not a checkpoint)");
  }
  header_.version = load_le32(raw + 8);
  if (header_.version == 0 || header_.version > SnapshotHeader::kVersion) {
    fail("unsupported version " + std::to_string(header_.version));
  }
  header_.num_servers = load_le32(raw + 12);
  if (header_.num_servers == 0) fail("zero num_servers");
  header_.num_objects = load_le64(raw + 16);
  header_.events_ingested = load_le64(raw + 24);
  header_.batches = load_le64(raw + 32);
  header_.base_seed = load_le64(raw + 40);
  header_.last_batch_time = std::bit_cast<double>(load_le64(raw + 48));
  header_.flags = load_le32(raw + 56);
  if (header_.version >= 2) {
    unsigned char ext[SnapshotHeader::kExtensionSize];
    in_.read(reinterpret_cast<char*>(ext), sizeof(ext));
    if (in_.gcount() != static_cast<std::streamsize>(sizeof(ext))) {
      fail("truncated header extension");
    }
    header_.log_hash = load_le64(ext);
    header_.log_num_objects = load_le64(ext + 8);
    header_.log_num_events = load_le64(ext + 16);
    const auto read_string = [this](std::string& s, const char* what) {
      unsigned char len_raw[4];
      in_.read(reinterpret_cast<char*>(len_raw), sizeof(len_raw));
      if (in_.gcount() != static_cast<std::streamsize>(sizeof(len_raw))) {
        fail(std::string("truncated ") + what + " length");
      }
      const std::uint32_t len = load_le32(len_raw);
      if (len > kMaxSpecBytes) {
        fail(std::string("implausible ") + what + " length " +
             std::to_string(len));
      }
      s.resize(len);
      if (len > 0) {
        in_.read(s.data(), static_cast<std::streamsize>(len));
        if (in_.gcount() != static_cast<std::streamsize>(len)) {
          fail(std::string("truncated ") + what);
        }
      }
    };
    read_string(header_.policy_spec, "policy spec");
    read_string(header_.predictor_spec, "predictor spec");
  }
  if (header_.version >= 3) {
    unsigned char codec_raw[4];
    in_.read(reinterpret_cast<char*>(codec_raw), sizeof(codec_raw));
    if (in_.gcount() != static_cast<std::streamsize>(sizeof(codec_raw))) {
      fail("truncated codec field");
    }
    header_.codec = load_le32(codec_raw);
    if (header_.codec != SnapshotHeader::kCodecRaw &&
        header_.codec != SnapshotHeader::kCodecWord) {
      fail("unknown object-record codec " + std::to_string(header_.codec));
    }
  } else {
    header_.codec = SnapshotHeader::kCodecRaw;
  }
}

SnapshotHeader read_snapshot_header(const std::string& path) {
  return SnapshotReader(path).header();
}

void SnapshotReader::fail(const std::string& what) const {
  throw std::runtime_error("checkpoint " + path_ + ": " + what);
}

void SnapshotReader::read_exact(void* dst, std::size_t n, const char* what) {
  in_.read(static_cast<char*>(dst), static_cast<std::streamsize>(n));
  if (in_.gcount() != static_cast<std::streamsize>(n)) {
    fail(std::string("truncated ") + what + " after " +
         std::to_string(objects_read_) + " of " +
         std::to_string(header_.num_objects) + " object records");
  }
}

bool SnapshotReader::append_object(std::uint64_t& object_id,
                                   std::vector<unsigned char>& arena) {
  if (objects_read_ == header_.num_objects) {
    if (!footer_checked_) {
      unsigned char footer[8];
      read_exact(footer, sizeof(footer), "footer");
      if (load_le64(footer) != SnapshotHeader::kFooterMagic) {
        fail("bad footer magic (snapshot not sealed)");
      }
      // Bytes after the footer mean the file is not what the header
      // claims — reject rather than silently ignore.
      if (in_.peek() != std::ifstream::traits_type::eof()) {
        fail("trailing bytes after footer");
      }
      footer_checked_ = true;
    }
    return false;
  }
  const std::size_t start = arena.size();
  if (header_.version < 3) {
    unsigned char prefix[12];
    read_exact(prefix, sizeof(prefix), "record prefix");
    object_id = load_le64(prefix);
    if (objects_read_ > 0 && object_id <= prev_id_) {
      fail("object ids out of order at record " +
           std::to_string(objects_read_));
    }
    prev_id_ = object_id;
    const std::uint32_t len = load_le32(prefix + 8);
    if (len > SnapshotHeader::kMaxRecordBytes) {
      fail("implausible record length in record " +
           std::to_string(objects_read_) + " (object " +
           std::to_string(object_id) + ")");
    }
    arena.resize(start + len);
    if (len > 0) read_exact(arena.data() + start, len, "record payload");
    ++objects_read_;
    return true;
  }

  unsigned char prefix[20];
  read_exact(prefix, sizeof(prefix), "record prefix");
  object_id = load_le64(prefix);
  if (objects_read_ > 0 && object_id <= prev_id_) {
    fail("object ids out of order at record " +
         std::to_string(objects_read_));
  }
  prev_id_ = object_id;
  const std::uint32_t encoded_len = load_le32(prefix + 8);
  const std::uint32_t raw_len = load_le32(prefix + 12);
  const std::uint32_t expected_crc = load_le32(prefix + 16);
  // Reject implausible lengths before any allocation: a corrupt length
  // field must surface as this diagnostic, not a multi-GB resize (the
  // CRC check that would catch it runs after the payload is read).
  if (encoded_len > SnapshotHeader::kMaxEncodedRecordBytes ||
      raw_len > SnapshotHeader::kMaxRecordBytes) {
    fail("implausible record length in record " +
         std::to_string(objects_read_) + " (object " +
         std::to_string(object_id) + ")");
  }
  // Raw records decode straight into the arena; only the word codec
  // needs the encoded scratch (restore is a hot path — no copy).
  const bool packed = header_.codec == SnapshotHeader::kCodecWord;
  unsigned char* encoded = nullptr;
  if (packed) {
    encoded_.resize(encoded_len);
    encoded = encoded_.data();
  } else {
    arena.resize(start + encoded_len);
    encoded = arena.data() + start;
  }
  if (encoded_len > 0) read_exact(encoded, encoded_len, "record payload");
  std::uint32_t crc = crc32c_update(crc32c_init(), prefix, 16);
  crc = crc32c_final(crc32c_update(crc, encoded, encoded_len));
  if (crc != expected_crc) {
    fail("CRC mismatch in record " + std::to_string(objects_read_) +
         " (object " + std::to_string(object_id) + ")");
  }
  if (packed) {
    const std::string error =
        try_word_unpack(encoded, encoded_len, raw_len, arena);
    if (!error.empty()) {
      fail("record " + std::to_string(objects_read_) + " (object " +
           std::to_string(object_id) + "): " + error);
    }
  } else if (raw_len != encoded_len) {
    fail("raw record " + std::to_string(objects_read_) +
         " declares mismatched lengths");
  }
  ++objects_read_;
  return true;
}

}  // namespace repl
