// Immutable, versioned model weight images — the unit of weight ownership
// for everything that serves a network.
//
// A ModelSnapshot freezes one network's trainable parameters and BatchNorm
// running statistics under a process-wide monotonically increasing version
// id. Consumers (inference-engine replicas, accelerator BRAM images,
// checkpoint files) hold a shared_ptr<const ModelSnapshot> instead of a
// private frozen copy, so a retrained model is published by swapping one
// pointer: the old version stays alive for whoever is mid-batch on it and
// dies with its last reference. This is what makes zero-downtime weight
// hot-swap (runtime::InferenceEngine::reload) possible — the engine never
// has to drain to move to a new model.
//
// Snapshots serialize as checkpoint format v2 (util/serialize.hpp): an
// architecture descriptor + solver settings + the version id, then the
// params and BN running statistics.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "models/architecture.hpp"
#include "models/stage.hpp"

namespace odenet::models {

class Network;
class ModelSnapshot;

/// Only what changed between two snapshots of the same signature — the
/// unit a delta publish ships. A head fine-tune carries the fc tensors
/// and nothing else; the trunk's megabytes stay home. Produced by
/// ModelSnapshot::diff, consumed by ModelSnapshot::assemble (which
/// rebuilds a full image against the retained base).
struct SnapshotDelta {
  /// Version of the snapshot this delta was computed against; assembly
  /// requires exactly that base.
  std::uint64_t base_version = 0;
  /// (index into the base's param order, changed tensor) pairs.
  struct ParamEntry {
    std::size_t index = 0;
    std::string name;
    std::vector<float> values;
  };
  std::vector<ParamEntry> params;
  /// (index into the BN walk order, changed running stats) pairs.
  struct BnEntry {
    std::size_t index = 0;
    std::vector<float> mean;
    std::vector<float> var;
  };
  std::vector<BnEntry> bns;

  /// Tensors this delta actually carries (params + BN stat pairs).
  std::size_t tensor_count() const { return params.size() + bns.size(); }
  /// Bytes of weight payload shipped (float data only — the honest
  /// "what went over the wire" number the accounting tests assert on).
  std::size_t payload_bytes() const;
};

class ModelSnapshot {
 public:
  using Ptr = std::shared_ptr<const ModelSnapshot>;

  /// One named parameter tensor, flattened.
  struct TensorRecord {
    std::string name;
    std::vector<float> values;
  };
  /// Running statistics of one BatchNorm2d, in network walk order.
  struct BnRecord {
    std::vector<float> mean;
    std::vector<float> var;
  };

  /// Freezes `net`'s current weights under the next global version id.
  static Ptr capture(Network& net);

  /// Reads a checkpoint (format v2). The loaded snapshot is
  /// assigned a fresh process-local version id — ids written by other
  /// processes share one numbering only by accident, so they are kept as
  /// provenance (saved_version()) rather than adopted; this is what
  /// makes version equality mean image identity within a process. Throws
  /// odenet::Error on malformed input.
  static Ptr load(std::istream& is);

  /// Version ids are process-local, unique and strictly increasing
  /// across capture()/load() calls, so within a process equal version ids
  /// imply the same weight image; 0 is never a valid version.
  std::uint64_t version() const { return version_; }
  /// The version id the checkpoint was saved under in its originating
  /// process (0 for fresh captures) — provenance only, never used for
  /// swap coordination.
  std::uint64_t saved_version() const { return saved_version_; }

  /// The captured network's architecture and forward solver settings.
  const NetworkSpec& spec() const { return spec_; }
  const SolverConfig& solver_config() const { return solver_cfg_; }

  /// Throws odenet::Error unless this snapshot fits a network built from
  /// `spec` (same architecture, depth and width).
  void check_compatible(const NetworkSpec& spec) const;

  /// Throws odenet::Error unless `other` carries the identical parameter
  /// and BN signature (count, names, sizes) as this snapshot. The engine
  /// checks a publish against its live image with this, so a snapshot
  /// whose payload disagrees with its own spec header (corrupt or
  /// cross-revision file) can never reach a worker-thread apply.
  void check_same_signature(const ModelSnapshot& other) const;

  /// Writes checkpoint format v2.
  void save(std::ostream& os) const;

  /// Overwrites `net`'s parameters and BN statistics with this image.
  /// `carried_version` is the version `net` carries now (0: unknown). A
  /// delta-assembled image whose delta_base() is that version writes ONLY
  /// its changed tensors and re-stamps only the layers they belong to, so
  /// the unchanged layers keep their packed-weight caches (no repack on
  /// the next forward); any other apply writes every tensor and stamps
  /// every layer. Returns true when it took the delta path. Validates the
  /// architecture descriptor and every param name/size; throws
  /// odenet::Error on any mismatch, leaving partial state only on the
  /// (structurally impossible after validation) tail mismatch.
  bool apply(Network& net, std::uint64_t carried_version = 0) const;

  /// The changed tensors of `next` relative to `base` (bytewise compare;
  /// both snapshots must share one parameter/BN signature — throws
  /// otherwise). An identical pair yields an empty delta.
  static SnapshotDelta diff(const ModelSnapshot& base,
                            const ModelSnapshot& next);

  /// Rebuilds a full snapshot from a retained base plus a delta: changed
  /// tensors come from the delta, everything else is shared with the
  /// base. The result gets a fresh version id, remembers
  /// delta_base() == base.version(), and carries per-tensor change masks
  /// so appliers and BRAM requantization can skip untouched state.
  /// Throws when delta.base_version != base.version() or an entry is out
  /// of range / wrong size.
  static Ptr assemble(const ModelSnapshot& base, const SnapshotDelta& delta);

  /// True for snapshots built by assemble(): delta_base() names the
  /// version the change masks are relative to (0 = full image, every
  /// tensor counts as changed).
  bool is_delta() const { return delta_base_ != 0; }
  std::uint64_t delta_base() const { return delta_base_; }
  /// Change masks, indexed like params()/bn_stats(). Full snapshots
  /// report every tensor changed.
  bool param_changed(std::size_t i) const {
    return param_changed_.empty() || param_changed_[i];
  }
  bool bn_changed(std::size_t i) const {
    return bn_changed_.empty() || bn_changed_[i];
  }
  /// Does this image change any tensor living in `id`'s stage? (Param
  /// names are stage-prefixed — "layer1.block.conv1.weight" — and the BN
  /// walk order is derived from the spec.) The engine skips BRAM
  /// requantization of untouched offloaded stages on this. Full
  /// snapshots: always true.
  bool stage_changed(StageId id) const;
  /// Changed-tensor accounting (what a delta publish of this image would
  /// ship): tensor count and float-payload bytes.
  std::size_t changed_tensor_count() const;
  std::size_t changed_payload_bytes() const;
  /// Float-payload bytes of the whole image (params + BN stats).
  std::size_t total_payload_bytes() const;

  const std::vector<TensorRecord>& params() const { return params_; }
  const std::vector<BnRecord>& bn_stats() const { return bns_; }
  /// Total floats across parameter tensors (telemetry / bench sizing).
  std::size_t param_floats() const;

 private:
  ModelSnapshot() = default;

  /// Stage owning a stage-prefixed param name ("conv1.weight",
  /// "layer2_1.block.bn1.gamma", "fc.bias"); throws on an unknown prefix.
  static StageId stage_of_param(const std::string& name);
  /// Stage of BN walk index `i` per the spec (index 0 is the stem BN,
  /// owned by conv1; then bn1+bn2 per block per stage in spec order).
  StageId stage_of_bn(std::size_t i) const;

  std::uint64_t version_ = 0;
  std::uint64_t saved_version_ = 0;  // provenance from the file, if any
  NetworkSpec spec_{};
  SolverConfig solver_cfg_{};
  std::vector<TensorRecord> params_;
  std::vector<BnRecord> bns_;
  /// Delta bookkeeping (set by assemble(); empty masks = full image).
  std::uint64_t delta_base_ = 0;
  std::vector<bool> param_changed_;
  std::vector<bool> bn_changed_;
};

}  // namespace odenet::models
