#include "core/theta_controller.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace fedra {

Status ThetaControllerConfig::Validate() const {
  if (!(target_bytes_per_step > 0.0)) {
    return Status::InvalidArgument("target_bytes_per_step must be > 0");
  }
  if (adjust_every_steps == 0) {
    return Status::InvalidArgument("adjust_every_steps must be > 0");
  }
  if (!(gain > 0.0) || gain > 1.0) {
    return Status::InvalidArgument("gain must be in (0, 1]");
  }
  if (!(min_theta > 0.0) || !(min_theta < max_theta)) {  // NaN fails too
    return Status::InvalidArgument("need 0 < min_theta < max_theta");
  }
  if (!(max_step_ratio > 1.0)) {
    return Status::InvalidArgument("max_step_ratio must be > 1");
  }
  return Status::Ok();
}

ThetaController::ThetaController(const ThetaControllerConfig& config,
                                 double initial_theta)
    : config_(config), theta_(initial_theta) {
  FEDRA_CHECK_OK(config.Validate());
  FEDRA_CHECK_GT(initial_theta, 0.0);
}

double ThetaController::Update(size_t step, uint64_t cumulative_bytes) {
  if (step < last_step_ + config_.adjust_every_steps) {
    return theta_;
  }
  const double steps =
      static_cast<double>(step - last_step_);
  const double bytes =
      static_cast<double>(cumulative_bytes - last_bytes_);
  last_step_ = step;
  last_bytes_ = cumulative_bytes;
  const double usage = bytes / steps;
  // Above budget => raise Theta (sync less); below => lower it.
  double ratio = std::pow(usage / config_.target_bytes_per_step,
                          config_.gain);
  ratio = std::clamp(ratio, 1.0 / config_.max_step_ratio,
                     config_.max_step_ratio);
  theta_ = std::clamp(theta_ * ratio, config_.min_theta, config_.max_theta);
  adjustments_.push_back({step, usage, theta_});
  return theta_;
}

}  // namespace fedra
