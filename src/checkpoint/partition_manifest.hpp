// Per-partition checkpoint manifest ("REPLPMAN"): the binding between a
// partition worker's snapshot and the slice of the object space it
// froze.
//
// A cluster worker's snapshot is an ordinary REPLCKPT file — the PR 3/5
// format verbatim, restorable by any engine. What the snapshot cannot
// say is *which slice* of the distributed stream it belongs to: a
// partition-2-of-4 snapshot restored as partition 1, or under a
// different partition count or partition-function version, would resume
// against the wrong sub-stream and silently diverge. The manifest is a
// tiny sibling file (snapshot path + ".pman") written atomically right
// after each checkpoint rename; restore validates it against the
// worker's assigned slice and fails loudly on any mismatch. The two
// renames are not one atomic step: a crash between them leaves the
// manifest one checkpoint behind its snapshot, which restore accepts
// (require_manifest_covers).
//
// Layout (52 bytes, little-endian):
//   offset  size  field
//   0       8     magic "REPLPMAN"
//   8       4     version (1)
//   12      4     partition_id
//   16      4     num_partitions
//   20      4     pf_version       (cluster/partition.hpp mapping version)
//   24      4     num_servers
//   28      4     reserved (0)
//   32      8     base_seed
//   40      8     events_ingested  (partition-local snapshot position)
//   48      4     CRC-32C over bytes [0, 48)
#pragma once

#include <cstdint>
#include <string>

namespace repl {

struct PartitionManifest {
  static constexpr std::uint64_t kMagic = 0x4e414d504c504552ULL;  // "REPLPMAN"
  static constexpr std::uint32_t kVersion = 1;
  static constexpr std::size_t kSize = 52;

  std::uint32_t partition_id = 0;
  std::uint32_t num_partitions = 1;
  std::uint32_t pf_version = 0;
  std::uint32_t num_servers = 0;
  std::uint64_t base_seed = 0;
  std::uint64_t events_ingested = 0;
};

/// The manifest's conventional location next to its snapshot.
std::string partition_manifest_path(const std::string& snapshot_path);

/// Writes the manifest atomically (tmp + rename + dir sync), mirroring
/// the snapshot's own crash-safety discipline. Throws std::runtime_error
/// on I/O failure.
void write_partition_manifest(const std::string& path,
                              const PartitionManifest& manifest);

/// Reads and CRC-verifies a manifest. Throws std::runtime_error naming
/// the defect (missing file, truncation, bad magic/version, CRC
/// mismatch).
PartitionManifest read_partition_manifest(const std::string& path);

/// The wrong-slice defense: validates that `manifest` describes exactly
/// the slice a resuming worker was assigned. Throws std::invalid_argument
/// naming both sides on any mismatch (partition id, partition count,
/// partition-function version, or server count).
void require_manifest_matches(const PartitionManifest& manifest,
                              std::uint32_t partition_id,
                              std::uint32_t num_partitions,
                              std::uint32_t num_servers);

/// The position cross-check against the snapshot the manifest sits next
/// to. The manifest is renamed into place after its snapshot, so a crash
/// between the two renames leaves a whole snapshot with the previous
/// checkpoint's manifest: same slice, lower events_ingested. That pair
/// is valid — resume from the snapshot, whose position the handshake
/// reports. A manifest *ahead* of its snapshot is not: throws
/// std::invalid_argument naming both positions.
void require_manifest_covers(const PartitionManifest& manifest,
                             std::uint64_t snapshot_events);

}  // namespace repl
