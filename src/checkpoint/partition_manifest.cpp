#include "checkpoint/partition_manifest.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "checkpoint/snapshot.hpp"
#include "cluster/partition.hpp"
#include "codec/crc32.hpp"
#include "codec/endian.hpp"
#include "util/check.hpp"

namespace repl {

std::string partition_manifest_path(const std::string& snapshot_path) {
  return snapshot_path + ".pman";
}

void write_partition_manifest(const std::string& path,
                              const PartitionManifest& manifest) {
  unsigned char raw[PartitionManifest::kSize];
  store_le64(raw + 0, PartitionManifest::kMagic);
  store_le32(raw + 8, PartitionManifest::kVersion);
  store_le32(raw + 12, manifest.partition_id);
  store_le32(raw + 16, manifest.num_partitions);
  store_le32(raw + 20, manifest.pf_version);
  store_le32(raw + 24, manifest.num_servers);
  store_le32(raw + 28, 0);
  store_le64(raw + 32, manifest.base_seed);
  store_le64(raw + 40, manifest.events_ingested);
  store_le32(raw + 48, crc32c(raw, 48));

  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("cannot open partition manifest for write: " +
                               tmp);
    }
    out.write(reinterpret_cast<const char*>(raw), sizeof raw);
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      throw std::runtime_error("failed writing partition manifest: " + tmp);
    }
  }
  sync_path_best_effort(tmp);
  std::filesystem::rename(tmp, path);
  sync_path_best_effort(
      std::filesystem::path(path).parent_path().string());
}

PartitionManifest read_partition_manifest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open partition manifest: " + path);
  }
  unsigned char raw[PartitionManifest::kSize];
  in.read(reinterpret_cast<char*>(raw), sizeof raw);
  if (in.gcount() != static_cast<std::streamsize>(sizeof raw)) {
    throw std::runtime_error("partition manifest truncated: " + path);
  }
  if (load_le64(raw + 0) != PartitionManifest::kMagic) {
    throw std::runtime_error("bad partition manifest magic: " + path);
  }
  const std::uint32_t version = load_le32(raw + 8);
  if (version != PartitionManifest::kVersion) {
    throw std::runtime_error("unsupported partition manifest version " +
                             std::to_string(version) + ": " + path);
  }
  if (load_le32(raw + 48) != crc32c(raw, 48)) {
    throw std::runtime_error("partition manifest CRC mismatch: " + path);
  }
  PartitionManifest manifest;
  manifest.partition_id = load_le32(raw + 12);
  manifest.num_partitions = load_le32(raw + 16);
  manifest.pf_version = load_le32(raw + 20);
  manifest.num_servers = load_le32(raw + 24);
  manifest.base_seed = load_le64(raw + 32);
  manifest.events_ingested = load_le64(raw + 40);
  return manifest;
}

void require_manifest_matches(const PartitionManifest& manifest,
                              std::uint32_t partition_id,
                              std::uint32_t num_partitions,
                              std::uint32_t num_servers) {
  require_partition_function_version(manifest.pf_version);
  REPL_REQUIRE_MSG(manifest.partition_id == partition_id,
                   "snapshot belongs to partition "
                       << manifest.partition_id << ", worker was assigned "
                       << partition_id << " (wrong slice)");
  REPL_REQUIRE_MSG(manifest.num_partitions == num_partitions,
                   "snapshot was cut under " << manifest.num_partitions
                                             << " partitions, cluster runs "
                                             << num_partitions
                                             << " (wrong geometry)");
  REPL_REQUIRE_MSG(manifest.num_servers == num_servers,
                   "snapshot was cut for " << manifest.num_servers
                                           << " servers, cluster serves "
                                           << num_servers);
}

void require_manifest_covers(const PartitionManifest& manifest,
                             std::uint64_t snapshot_events) {
  REPL_REQUIRE_MSG(manifest.events_ingested <= snapshot_events,
                   "partition manifest covers "
                       << manifest.events_ingested
                       << " events but the snapshot resumes at "
                       << snapshot_events);
}

}  // namespace repl
