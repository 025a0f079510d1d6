#include "models/snapshot.hpp"

#include <atomic>
#include <sstream>

#include "models/network.hpp"
#include "util/serialize.hpp"

namespace odenet::models {

namespace {

/// Process-wide version source. 0 is reserved ("no version"); the first
/// capture gets 1.
std::atomic<std::uint64_t> g_next_version{0};

std::uint64_t take_next_version() {
  return g_next_version.fetch_add(1, std::memory_order_relaxed) + 1;
}

Arch arch_from_name(const std::string& name) {
  for (Arch a : all_archs()) {
    if (arch_name(a) == name) return a;
  }
  ODENET_CHECK(false, "snapshot names unknown architecture '" << name << "'");
  return Arch::kResNet;  // unreachable
}

template <typename E>
E enum_from_u32(std::uint32_t v, std::uint32_t count, const char* what) {
  ODENET_CHECK(v < count, "snapshot has invalid " << what << " value " << v);
  return static_cast<E>(v);
}

}  // namespace

ModelSnapshot::Ptr ModelSnapshot::capture(Network& net) {
  auto snap = std::shared_ptr<ModelSnapshot>(new ModelSnapshot());
  snap->version_ = take_next_version();
  snap->spec_ = net.spec();
  snap->solver_cfg_ = net.solver_config();
  for (core::Param* p : net.params()) {
    snap->params_.push_back({p->name, p->value.storage()});
  }
  net.for_each_batchnorm([&snap](core::BatchNorm2d& bn) {
    snap->bns_.push_back(
        {bn.running_mean().storage(), bn.running_var().storage()});
  });
  return snap;
}

void ModelSnapshot::check_compatible(const NetworkSpec& other) const {
  ODENET_CHECK(spec_.arch == other.arch && spec_.n == other.n,
               "snapshot is " << arch_name(spec_.arch) << "-" << spec_.n
                              << ", network is " << arch_name(other.arch)
                              << "-" << other.n);
  const WidthConfig& a = spec_.width;
  const WidthConfig& b = other.width;
  ODENET_CHECK(a.input_channels == b.input_channels &&
                   a.input_size == b.input_size &&
                   a.base_channels == b.base_channels &&
                   a.num_classes == b.num_classes,
               "snapshot width config (in " << a.input_channels << "x"
                                            << a.input_size << ", base "
                                            << a.base_channels << ", classes "
                                            << a.num_classes
                                            << ") does not match network");
}

void ModelSnapshot::check_same_signature(const ModelSnapshot& other) const {
  ODENET_CHECK(params_.size() == other.params_.size(),
               "snapshot payload mismatch: " << other.params_.size()
                                             << " params, expected "
                                             << params_.size());
  for (std::size_t i = 0; i < params_.size(); ++i) {
    ODENET_CHECK(params_[i].name == other.params_[i].name,
                 "snapshot payload mismatch: param '"
                     << other.params_[i].name << "', expected '"
                     << params_[i].name << "'");
    ODENET_CHECK(params_[i].values.size() == other.params_[i].values.size(),
                 "snapshot payload mismatch: size of " << params_[i].name);
  }
  ODENET_CHECK(bns_.size() == other.bns_.size(),
               "snapshot payload mismatch: BN count");
  for (std::size_t i = 0; i < bns_.size(); ++i) {
    ODENET_CHECK(bns_[i].mean.size() == other.bns_[i].mean.size() &&
                     bns_[i].var.size() == other.bns_[i].var.size(),
                 "snapshot payload mismatch: BN stat sizes");
  }
}

std::size_t ModelSnapshot::param_floats() const {
  std::size_t total = 0;
  for (const auto& p : params_) total += p.values.size();
  return total;
}

std::size_t SnapshotDelta::payload_bytes() const {
  std::size_t floats = 0;
  for (const auto& p : params) floats += p.values.size();
  for (const auto& b : bns) floats += b.mean.size() + b.var.size();
  return floats * sizeof(float);
}

SnapshotDelta ModelSnapshot::diff(const ModelSnapshot& base,
                                  const ModelSnapshot& next) {
  base.check_same_signature(next);
  SnapshotDelta delta;
  delta.base_version = base.version_;
  for (std::size_t i = 0; i < next.params_.size(); ++i) {
    if (next.params_[i].values != base.params_[i].values) {
      delta.params.push_back(
          {i, next.params_[i].name, next.params_[i].values});
    }
  }
  for (std::size_t i = 0; i < next.bns_.size(); ++i) {
    if (next.bns_[i].mean != base.bns_[i].mean ||
        next.bns_[i].var != base.bns_[i].var) {
      delta.bns.push_back({i, next.bns_[i].mean, next.bns_[i].var});
    }
  }
  return delta;
}

ModelSnapshot::Ptr ModelSnapshot::assemble(const ModelSnapshot& base,
                                           const SnapshotDelta& delta) {
  ODENET_CHECK(delta.base_version == base.version_,
               "delta was computed against version " << delta.base_version
                                                     << ", base is version "
                                                     << base.version_);
  auto snap = std::shared_ptr<ModelSnapshot>(new ModelSnapshot());
  // Full copy of the base image, then overlay the changed tensors. The
  // unchanged payload is duplicated rather than structurally shared —
  // snapshots stay self-contained value types — but the SHIPPED bytes
  // are the delta's alone, which is what the accounting reports.
  snap->version_ = take_next_version();
  snap->spec_ = base.spec_;
  snap->solver_cfg_ = base.solver_cfg_;
  snap->params_ = base.params_;
  snap->bns_ = base.bns_;
  snap->delta_base_ = base.version_;
  snap->param_changed_.assign(base.params_.size(), false);
  snap->bn_changed_.assign(base.bns_.size(), false);
  for (const auto& p : delta.params) {
    ODENET_CHECK(p.index < snap->params_.size(),
                 "delta param index " << p.index << " out of range (base has "
                                      << snap->params_.size() << " params)");
    TensorRecord& rec = snap->params_[p.index];
    ODENET_CHECK(p.name == rec.name, "delta param '"
                                         << p.name << "' at index " << p.index
                                         << " does not match base param '"
                                         << rec.name << "'");
    ODENET_CHECK(p.values.size() == rec.values.size(),
                 "delta size mismatch for " << p.name);
    rec.values = p.values;
    snap->param_changed_[p.index] = true;
  }
  for (const auto& b : delta.bns) {
    ODENET_CHECK(b.index < snap->bns_.size(),
                 "delta BN index " << b.index << " out of range (base has "
                                   << snap->bns_.size() << " BN records)");
    BnRecord& rec = snap->bns_[b.index];
    ODENET_CHECK(b.mean.size() == rec.mean.size() &&
                     b.var.size() == rec.var.size(),
                 "delta BN stat size mismatch at index " << b.index);
    rec.mean = b.mean;
    rec.var = b.var;
    snap->bn_changed_[b.index] = true;
  }
  return snap;
}

StageId ModelSnapshot::stage_of_param(const std::string& name) {
  // Params are stage-prefixed: "conv1.weight", "layer2_1.block.bn1.gamma",
  // "fc.bias". Longest-prefix-wins is unnecessary — no stage name is a
  // prefix of another followed by '.'.
  for (StageId id :
       {StageId::kConv1, StageId::kLayer1, StageId::kLayer2_1,
        StageId::kLayer2_2, StageId::kLayer3_1, StageId::kLayer3_2,
        StageId::kFc}) {
    const std::string prefix = stage_name(id) + ".";
    if (name.compare(0, prefix.size(), prefix) == 0) return id;
  }
  ODENET_CHECK(false, "param '" << name << "' has no stage prefix");
  return StageId::kConv1;  // unreachable
}

StageId ModelSnapshot::stage_of_bn(std::size_t i) const {
  // BN walk order (Network::for_each_batchnorm): the stem BN first, then
  // bn1+bn2 per block instance per stage in spec order.
  if (i == 0) return StageId::kConv1;
  std::size_t cursor = 1;
  for (const auto& s : spec_.stages) {
    const std::size_t count =
        2 * static_cast<std::size_t>(s.stacked_blocks);
    if (i < cursor + count) return s.id;
    cursor += count;
  }
  ODENET_CHECK(false, "BN index " << i << " beyond the spec's walk order");
  return StageId::kConv1;  // unreachable
}

bool ModelSnapshot::stage_changed(StageId id) const {
  if (!is_delta()) return true;
  for (std::size_t i = 0; i < params_.size(); ++i) {
    if (param_changed_[i] && stage_of_param(params_[i].name) == id) {
      return true;
    }
  }
  for (std::size_t i = 0; i < bns_.size(); ++i) {
    if (bn_changed_[i] && stage_of_bn(i) == id) return true;
  }
  return false;
}

std::size_t ModelSnapshot::changed_tensor_count() const {
  std::size_t count = 0;
  for (std::size_t i = 0; i < params_.size(); ++i) {
    if (param_changed(i)) ++count;
  }
  for (std::size_t i = 0; i < bns_.size(); ++i) {
    if (bn_changed(i)) ++count;
  }
  return count;
}

std::size_t ModelSnapshot::changed_payload_bytes() const {
  std::size_t floats = 0;
  for (std::size_t i = 0; i < params_.size(); ++i) {
    if (param_changed(i)) floats += params_[i].values.size();
  }
  for (std::size_t i = 0; i < bns_.size(); ++i) {
    if (bn_changed(i)) floats += bns_[i].mean.size() + bns_[i].var.size();
  }
  return floats * sizeof(float);
}

std::size_t ModelSnapshot::total_payload_bytes() const {
  std::size_t floats = param_floats();
  for (const auto& bn : bns_) floats += bn.mean.size() + bn.var.size();
  return floats * sizeof(float);
}

void ModelSnapshot::save(std::ostream& os) const {
  util::BinaryWriter w(os);
  util::write_weights_header(w);
  w.write_string(arch_name(spec_.arch));
  w.write_u32(static_cast<std::uint32_t>(spec_.n));
  w.write_u32(static_cast<std::uint32_t>(spec_.width.input_channels));
  w.write_u32(static_cast<std::uint32_t>(spec_.width.input_size));
  w.write_u32(static_cast<std::uint32_t>(spec_.width.base_channels));
  w.write_u32(static_cast<std::uint32_t>(spec_.width.num_classes));
  w.write_u32(static_cast<std::uint32_t>(solver_cfg_.method));
  w.write_u32(static_cast<std::uint32_t>(solver_cfg_.gradient));
  w.write_u32(static_cast<std::uint32_t>(solver_cfg_.time_span));
  w.write_f64(solver_cfg_.rtol);
  w.write_f64(solver_cfg_.atol);
  w.write_u64(version_);
  // Payload: params then BN running statistics.
  w.write_u64(params_.size());
  for (const auto& p : params_) {
    w.write_string(p.name);
    w.write_floats(p.values);
  }
  w.write_u64(bns_.size());
  for (const auto& bn : bns_) {
    w.write_floats(bn.mean);
    w.write_floats(bn.var);
  }
}

ModelSnapshot::Ptr ModelSnapshot::load(std::istream& is) {
  util::BinaryReader r(is);
  util::read_weights_header(r);
  auto snap = std::shared_ptr<ModelSnapshot>(new ModelSnapshot());
  WidthConfig width;
  const Arch arch = arch_from_name(r.read_string());
  const int n = static_cast<int>(r.read_u32());
  width.input_channels = static_cast<int>(r.read_u32());
  width.input_size = static_cast<int>(r.read_u32());
  width.base_channels = static_cast<int>(r.read_u32());
  width.num_classes = static_cast<int>(r.read_u32());
  snap->spec_ = make_spec(arch, n, width);
  snap->solver_cfg_.method =
      enum_from_u32<solver::Method>(r.read_u32(), 4, "solver method");
  snap->solver_cfg_.gradient =
      enum_from_u32<GradientMode>(r.read_u32(), 2, "gradient mode");
  snap->solver_cfg_.time_span =
      enum_from_u32<TimeSpan>(r.read_u32(), 2, "time span");
  snap->solver_cfg_.rtol = r.read_f64();
  snap->solver_cfg_.atol = r.read_f64();
  snap->saved_version_ = r.read_u64();
  ODENET_CHECK(snap->saved_version_ > 0, "snapshot has invalid version 0");
  // A fresh local id: ids from other processes share this numbering only
  // by accident, and a collision would let a reload() be mistaken for the
  // already-live image.
  snap->version_ = take_next_version();
  const std::uint64_t np = r.read_u64();
  ODENET_CHECK(np < (1ULL << 20), "unreasonable param count " << np);
  snap->params_.reserve(np);
  for (std::uint64_t i = 0; i < np; ++i) {
    TensorRecord rec;
    rec.name = r.read_string();
    rec.values = r.read_floats();
    snap->params_.push_back(std::move(rec));
  }
  const std::uint64_t nb = r.read_u64();
  ODENET_CHECK(nb < (1ULL << 20), "unreasonable BN count " << nb);
  snap->bns_.reserve(nb);
  for (std::uint64_t i = 0; i < nb; ++i) {
    BnRecord rec;
    rec.mean = r.read_floats();
    rec.var = r.read_floats();
    snap->bns_.push_back(std::move(rec));
  }
  return snap;
}

bool ModelSnapshot::apply(Network& net, std::uint64_t carried_version) const {
  // A delta against the image `net` carries writes only its changed
  // tensors; anything else writes the whole image.
  const bool delta = is_delta() && delta_base_ == carried_version;
  check_compatible(net.spec());
  auto ps = net.params();
  ODENET_CHECK(params_.size() == ps.size(),
               net.name() << ": snapshot has " << params_.size()
                          << " params, network has " << ps.size());
  for (std::size_t i = 0; i < ps.size(); ++i) {
    const TensorRecord& rec = params_[i];
    core::Param* p = ps[i];
    ODENET_CHECK(rec.name == p->name,
                 net.name() << ": snapshot param '" << rec.name
                            << "' does not match network param '" << p->name
                            << "'");
    ODENET_CHECK(rec.values.size() == p->value.numel(),
                 net.name() << ": size mismatch for " << rec.name);
    if (!delta || param_changed_[i]) p->value.storage() = rec.values;
  }
  std::size_t bi = 0;
  net.for_each_batchnorm([this, &bi, &net, delta](core::BatchNorm2d& bn) {
    ODENET_CHECK(bi < bns_.size(),
                 net.name() << ": snapshot BN count mismatch");
    const std::size_t i = bi++;
    const BnRecord& rec = bns_[i];
    ODENET_CHECK(rec.mean.size() == bn.running_mean().numel() &&
                     rec.var.size() == bn.running_var().numel(),
                 net.name() << ": BN stat size mismatch");
    if (delta && !bn_changed_[i]) return;
    bn.running_mean().storage() = rec.mean;
    bn.running_var().storage() = rec.var;
  });
  ODENET_CHECK(bi == bns_.size(), net.name()
                                      << ": snapshot BN count mismatch");
  if (!delta) {
    // Stamp the image's version on every packed-weight-caching layer: the
    // next forward packs each weight matrix once and every later call is
    // a cache hit until the next apply (a hot-swap re-stamps a new
    // version, which invalidates by key mismatch). Anyone mutating
    // weights in place afterwards must un-stamp (Trainer does, after each
    // optimizer step).
    net.set_weight_version(version_);
    return false;
  }
  // Re-stamp ONLY the layers whose tensors this image changes: untouched
  // layers keep their old stamp and with it their packed-weight caches.
  // A layer counts as changed when any changed param name sits under its
  // name ("layer1.block.conv1" owns "layer1.block.conv1.weight").
  net.set_weight_version_where(
      version_, [this](const std::string& layer_name) {
        const std::string prefix = layer_name + ".";
        for (std::size_t i = 0; i < params_.size(); ++i) {
          if (param_changed_[i] &&
              params_[i].name.compare(0, prefix.size(), prefix) == 0) {
            return true;
          }
        }
        return false;
      });
  return true;
}

}  // namespace odenet::models
