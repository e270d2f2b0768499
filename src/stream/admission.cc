#include "stream/admission.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace gus {

namespace {

Result<SamplingSpec> ScaleSpec(const SamplingSpec& spec, double scale) {
  SamplingSpec scaled = spec;
  switch (spec.method) {
    case SamplingMethod::kBernoulli:
    case SamplingMethod::kBlockBernoulli:
    case SamplingMethod::kLineageBernoulli:
      scaled.p = std::min(1.0, spec.p * scale);
      break;
    case SamplingMethod::kWithoutReplacement:
    case SamplingMethod::kWithReplacementDistinct:
      scaled.n = std::max<int64_t>(
          1, static_cast<int64_t>(
                 std::llround(static_cast<double>(spec.n) * scale)));
      break;
  }
  GUS_RETURN_NOT_OK(scaled.Validate());
  return scaled;
}

Result<PlanPtr> ScaleNode(const PlanPtr& node, double scale) {
  switch (node->op()) {
    case PlanOp::kScan:
      return node;
    case PlanOp::kSample: {
      GUS_ASSIGN_OR_RETURN(PlanPtr child, ScaleNode(node->child(), scale));
      GUS_ASSIGN_OR_RETURN(SamplingSpec spec, ScaleSpec(node->spec(), scale));
      return PlanNode::Sample(std::move(spec), std::move(child));
    }
    case PlanOp::kSelect: {
      GUS_ASSIGN_OR_RETURN(PlanPtr child, ScaleNode(node->child(), scale));
      return PlanNode::SelectNode(node->predicate(), std::move(child));
    }
    case PlanOp::kJoin: {
      GUS_ASSIGN_OR_RETURN(PlanPtr left, ScaleNode(node->left(), scale));
      GUS_ASSIGN_OR_RETURN(PlanPtr right, ScaleNode(node->right(), scale));
      return PlanNode::Join(std::move(left), std::move(right),
                            node->left_key(), node->right_key());
    }
    case PlanOp::kProduct: {
      GUS_ASSIGN_OR_RETURN(PlanPtr left, ScaleNode(node->left(), scale));
      GUS_ASSIGN_OR_RETURN(PlanPtr right, ScaleNode(node->right(), scale));
      return PlanNode::Product(std::move(left), std::move(right));
    }
    case PlanOp::kUnion: {
      GUS_ASSIGN_OR_RETURN(PlanPtr left, ScaleNode(node->left(), scale));
      GUS_ASSIGN_OR_RETURN(PlanPtr right, ScaleNode(node->right(), scale));
      return PlanNode::Union(std::move(left), std::move(right));
    }
  }
  return Status::Internal("unreachable plan op");
}

}  // namespace

Result<AdmissionController> AdmissionController::Make(
    const AdmissionConfig& config) {
  if (config.capacity_rows < 1) {
    return Status::InvalidArgument("AdmissionConfig::capacity_rows must be "
                                   ">= 1");
  }
  if (!(config.min_scale > 0.0 && config.min_scale <= 1.0)) {
    return Status::InvalidArgument(
        "AdmissionConfig::min_scale must be in (0, 1]");
  }
  if (!(config.max_scale >= config.min_scale && config.max_scale <= 1.0)) {
    return Status::InvalidArgument(
        "AdmissionConfig::max_scale must be in [min_scale, 1]");
  }
  if (!(config.smoothing > 0.0 && config.smoothing <= 1.0)) {
    return Status::InvalidArgument(
        "AdmissionConfig::smoothing must be in (0, 1]");
  }
  return AdmissionController(config);
}

void AdmissionController::ObserveQuery(int64_t offered_rows) {
  const auto observed = static_cast<double>(offered_rows);
  if (!seeded_) {
    smoothed_rows_ = observed;
    seeded_ = true;
  } else {
    smoothed_rows_ = config_.smoothing * observed +
                     (1.0 - config_.smoothing) * smoothed_rows_;
  }
  if (smoothed_rows_ <= 0.0) {
    scale_ = config_.max_scale;
    return;
  }
  const double target =
      static_cast<double>(config_.capacity_rows) / smoothed_rows_;
  scale_ = std::clamp(target, config_.min_scale, config_.max_scale);
}

Result<PlanPtr> ScalePlanSamplingRates(const PlanPtr& plan, double scale) {
  if (plan == nullptr) {
    return Status::InvalidArgument("ScalePlanSamplingRates: null plan");
  }
  if (!(scale > 0.0) || scale > 1.0) {
    return Status::InvalidArgument(
        "admission scale must be in (0, 1], got " + std::to_string(scale));
  }
  if (scale == 1.0) return plan;
  return ScaleNode(plan, scale);
}

}  // namespace gus
