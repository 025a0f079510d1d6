#include "models/network.hpp"

#include "core/init.hpp"
#include "core/softmax.hpp"
#include "models/snapshot.hpp"

namespace odenet::models {

Network::Network(const NetworkSpec& spec, const SolverConfig& solver_cfg)
    : spec_(spec),
      solver_cfg_(solver_cfg),
      name_(arch_name(spec.arch) + "-" + std::to_string(spec.n)),
      stem_conv_({.in_channels = spec.width.input_channels,
                  .out_channels = spec.width.base_channels,
                  .kernel = 3,
                  .stride = 1,
                  .pad = 1,
                  .time_channel = false},
                 "conv1"),
      stem_bn_(spec.width.base_channels, "conv1.bn"),
      stem_relu_("conv1.relu"),
      gap_("gap"),
      fc_(4 * spec.width.base_channels, spec.width.num_classes, "fc") {
  stages_.reserve(spec.stages.size());
  for (const auto& s : spec.stages) {
    stages_.push_back(std::make_unique<Stage>(s, solver_cfg));
  }
  // All convs share the network-owned lowering arena: one scratch buffer,
  // sized by the largest conv of the net, recycled across every call.
  for_each_conv([this](core::Conv2d& conv) { conv.set_arena(&arena_); });
}

Network::Network(Network&& other) noexcept
    : core::Layer(std::move(other)),
      spec_(std::move(other.spec_)),
      solver_cfg_(other.solver_cfg_),
      name_(std::move(other.name_)),
      float_exec_(std::move(other.float_exec_)),
      arena_(std::move(other.arena_)),
      stem_conv_(std::move(other.stem_conv_)),
      stem_bn_(std::move(other.stem_bn_)),
      stem_relu_(std::move(other.stem_relu_)),
      stages_(std::move(other.stages_)),
      gap_(std::move(other.gap_)),
      fc_(std::move(other.fc_)) {
  // Convs still point at other's arena member; re-point them here.
  for_each_conv([this](core::Conv2d& conv) { conv.set_arena(&arena_); });
}

void Network::for_each_conv(const std::function<void(core::Conv2d&)>& fn) {
  fn(stem_conv_);
  for (auto& s : stages_) {
    if (s->is_empty()) continue;
    if (s->is_ode()) {
      fn(s->ode()->block().conv1());
      fn(s->ode()->block().conv2());
    } else {
      for (auto& b : s->blocks()) {
        fn(b->conv1());
        fn(b->conv2());
      }
    }
  }
}

void Network::for_each_batchnorm(
    const std::function<void(core::BatchNorm2d&)>& fn) {
  fn(stem_bn_);
  for (auto& s : stages_) {
    if (s->is_empty()) continue;
    if (s->is_ode()) {
      fn(s->ode()->block().bn1());
      fn(s->ode()->block().bn2());
    } else {
      for (auto& b : s->blocks()) {
        fn(b->bn1());
        fn(b->bn2());
      }
    }
  }
}

void Network::set_weight_version(std::uint64_t version) {
  for_each_conv([version](core::Conv2d& conv) {
    conv.set_weight_version(version);
  });
}

void Network::set_weight_version_where(
    std::uint64_t version,
    const std::function<bool(const std::string& layer_name)>& changed) {
  for_each_conv([version, &changed](core::Conv2d& conv) {
    if (changed(conv.name())) conv.set_weight_version(version);
  });
}

core::Tensor Network::stem_forward(const Tensor& x) {
  ODENET_CHECK(x.ndim() == 4 && x.dim(1) == spec_.width.input_channels &&
                   x.dim(2) == spec_.width.input_size &&
                   x.dim(3) == spec_.width.input_size,
               name_ << ": expected [N," << spec_.width.input_channels << ","
                     << spec_.width.input_size << "," << spec_.width.input_size
                     << "], got " << x.shape_str());
  core::Tensor h = stem_conv_.forward(x);
  h = stem_bn_.forward(h);
  return stem_relu_.forward(h);
}

core::Tensor Network::head_forward(const Tensor& features) {
  core::Tensor h = gap_.forward(features);
  return fc_.forward(h);
}

core::Tensor Network::forward(const Tensor& x) {
  return forward_with(x, StagePlan{});
}

core::Tensor Network::forward_with(const Tensor& x, const StagePlan& plan,
                                   NetworkRunStats* stats) {
  // A forward supersedes the last one's backward. ODE stages drop what a
  // training forward left unconsumed (BN calibration runs training
  // forwards back to back) before this forward allocates, so the M
  // step-start states do not stay live beside the new activations;
  // recorded evaluations' slots are refilled in place.
  for (auto& s : stages_) {
    if (OdeBlock* ode = s->ode()) ode->release_cache();
  }
  core::Tensor h = stem_forward(x);
  h = forward_stages(std::move(h), plan, stats);
  return head_forward(h);
}

core::Tensor Network::forward_stages(Tensor h, const StagePlan& plan,
                                     NetworkRunStats* stats) {
  for (auto& s : stages_) {
    if (s->is_empty()) continue;
    StageExecutor* exec = plan.executor_for(s->spec().id);
    if (exec == nullptr) exec = &float_exec_;
    StageRun run;
    run.id = s->spec().id;
    h = exec->run(*s, h, stats != nullptr ? &run.stats : nullptr);
    if (stats != nullptr) stats->stages.push_back(std::move(run));
  }
  return h;
}

core::Tensor Network::backward(const Tensor& grad_logits) {
  core::Tensor g = fc_.backward(grad_logits);
  g = gap_.backward(g);
  for (auto it = stages_.rbegin(); it != stages_.rend(); ++it) {
    if (!(*it)->is_empty()) g = (*it)->backward(g);
  }
  g = stem_relu_.backward(g);
  g = stem_bn_.backward(g);
  return stem_conv_.backward(g);
}

std::vector<core::Param*> Network::params() {
  std::vector<core::Param*> out;
  auto append = [&out](std::vector<core::Param*> ps) {
    out.insert(out.end(), ps.begin(), ps.end());
  };
  append(stem_conv_.params());
  append(stem_bn_.params());
  for (auto& s : stages_) append(s->params());
  append(gap_.params());
  append(fc_.params());
  return out;
}

void Network::set_training(bool training) {
  core::Layer::set_training(training);
  stem_conv_.set_training(training);
  stem_bn_.set_training(training);
  stem_relu_.set_training(training);
  for (auto& s : stages_) s->set_training(training);
  gap_.set_training(training);
  fc_.set_training(training);
}

void Network::init(util::Rng& rng) {
  core::init_conv(stem_conv_, rng);
  for (auto& s : stages_) {
    if (s->is_empty()) continue;
    if (s->is_ode()) {
      core::init_block(s->ode()->block(), rng);
    } else {
      for (auto& b : s->blocks()) core::init_block(*b, rng);
    }
  }
  core::init_linear(fc_, rng);
}

std::vector<int> Network::predict(const Tensor& x, const StagePlan* plan) {
  const bool was_training = training();
  set_training(false);
  core::Tensor logits =
      plan != nullptr ? forward_with(x, *plan) : forward(x);
  set_training(was_training);
  return core::SoftmaxCrossEntropy::argmax(logits);
}

Stage* Network::stage(StageId id) {
  for (auto& s : stages_) {
    if (s->spec().id == id) return s.get();
  }
  return nullptr;
}

std::shared_ptr<const ModelSnapshot> Network::export_snapshot() {
  return ModelSnapshot::capture(*this);
}

void Network::apply_snapshot(const ModelSnapshot& snapshot) {
  snapshot.apply(*this);
}

void Network::save_weights(std::ostream& os) {
  export_snapshot()->save(os);
}

void Network::load_weights(std::istream& is) {
  ModelSnapshot::load(is)->apply(*this);
}

}  // namespace odenet::models
