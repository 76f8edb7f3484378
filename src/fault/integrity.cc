#include "fault/integrity.hh"

#include <cmath>

namespace mealib::fault {

void
Checksum::update(const void *data, std::size_t n)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint64_t h = state_;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= kPrime;
    }
    state_ = h;
}

Status
IntegrityConfig::validate() const
{
    auto bad = [](double v) { return !std::isfinite(v) || v < 0.0; };
    if (bad(checksumSecondsPerByte)) {
        return Status::error(ErrorCode::InvalidArgument,
                             "integrity config: checksum seconds/byte "
                             "must be finite and >= 0");
    }
    if (bad(checksumJPerByte)) {
        return Status::error(ErrorCode::InvalidArgument,
                             "integrity config: checksum joules/byte "
                             "must be finite and >= 0");
    }
    return Status();
}

Cost
checksumCost(const IntegrityConfig &cfg, double bytes)
{
    Cost c;
    c.seconds = bytes * cfg.checksumSecondsPerByte;
    c.joules = bytes * cfg.checksumJPerByte;
    return c;
}

} // namespace mealib::fault
