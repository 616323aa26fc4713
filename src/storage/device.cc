#include "storage/device.h"

#include <utility>

namespace ignem {

const char* media_name(MediaType type) {
  switch (type) {
    case MediaType::kHdd: return "HDD";
    case MediaType::kSsd: return "SSD";
    case MediaType::kRam: return "RAM";
  }
  return "?";
}

// Calibration (held fixed across every macro experiment): with ~6
// concurrent mapper streams per node — one per core on the §IV-A testbed's
// Xeon E5-1650 — a 64 MB block lands at ≈6 s from HDD, ≈40 ms from RAM
// (the paper's 160x, Fig. 1) and ≈7x RAM from SSD. RAM's access latency
// stands in for the HDFS read-path overhead (checksums, copies, JVM) that
// dominates an in-memory block read on the real system.

DeviceProfile hdd_profile() {
  DeviceProfile p;
  p.media = MediaType::kHdd;
  p.bandwidth.sequential_bw = mib_per_sec(140);
  p.bandwidth.degradation = 0.27;  // interleaved streams force seeks
  p.bandwidth.per_stream_cap = mib_per_sec(140);
  p.access_latency = Duration::millis(9);
  p.access_jitter = 0.5;
  return p;
}

DeviceProfile ssd_profile() {
  DeviceProfile p;
  p.media = MediaType::kSsd;
  p.bandwidth.sequential_bw = gib_per_sec(2.5);
  p.bandwidth.degradation = 0.02;  // near-flat under concurrency
  p.bandwidth.per_stream_cap = mib_per_sec(230);  // SATA-era read path
  p.access_latency = Duration::micros(120);
  p.access_jitter = 0.3;
  return p;
}

DeviceProfile ram_profile() {
  DeviceProfile p;
  p.media = MediaType::kRam;
  p.bandwidth.sequential_bw = gib_per_sec(24);
  p.bandwidth.degradation = 0.0;
  p.bandwidth.per_stream_cap = gib_per_sec(2);
  p.access_latency = Duration::millis(8);  // HDFS read-path overhead
  p.access_jitter = 0.3;
  return p;
}

DeviceProfile profile_for(MediaType type) {
  switch (type) {
    case MediaType::kHdd: return hdd_profile();
    case MediaType::kSsd: return ssd_profile();
    case MediaType::kRam: return ram_profile();
  }
  return hdd_profile();
}

StorageDevice::StorageDevice(Simulator& sim, std::string name,
                             DeviceProfile profile, Rng rng)
    : sim_(sim),
      name_(std::move(name)),
      profile_(profile),
      rng_(rng),
      channel_(sim, name_ + "/channel", profile.bandwidth) {}

Duration StorageDevice::sample_access_latency() {
  const double mean = profile_.access_latency.to_seconds();
  if (mean <= 0) return Duration::zero();
  const double jitter = profile_.access_jitter;
  const double factor = jitter > 0 ? rng_.uniform(1.0 - jitter, 1.0 + jitter) : 1.0;
  return Duration::seconds(mean * factor);
}

void StorageDevice::set_trace(TraceRecorder* trace, NodeId node) {
  channel_.set_trace(trace, node);
}

TransferHandle StorageDevice::submit(Bytes bytes, Callback on_complete) {
  IGNEM_CHECK(bytes >= 0);
  const TransferHandle handle(next_id_++);
  const Duration latency = sample_access_latency();
  auto start_transfer = [this, id = handle.id(), bytes] {
    const auto it = requests_.find(id);
    IGNEM_CHECK(it != requests_.end());
    it->second.in_latency = false;
    it->second.channel_handle = channel_.start(bytes, [this, id] {
      const auto done = requests_.find(id);
      IGNEM_CHECK(done != requests_.end());
      const Callback cb = std::move(done->second.on_complete);
      requests_.erase(done);
      cb();
    });
  };
  static_assert(sizeof(start_transfer) <= SmallFunction::kInlineBytes,
                "the access-latency event must not spill out of SmallFunction");
  Request& request = requests_[handle.id()];
  request.on_complete = std::move(on_complete);
  request.timer = sim_.schedule(latency, start_transfer);
  return handle;
}

TransferHandle StorageDevice::read(Bytes bytes, Callback on_complete) {
  return submit(bytes, std::move(on_complete));
}

TransferHandle StorageDevice::write(Bytes bytes, Callback on_complete) {
  return submit(bytes, std::move(on_complete));
}

bool StorageDevice::abort(TransferHandle handle) {
  if (!handle.valid()) return false;
  const auto it = requests_.find(handle.id());
  if (it == requests_.end()) return false;
  if (it->second.in_latency) {
    sim_.cancel(it->second.timer);
  } else {
    channel_.abort(it->second.channel_handle);
  }
  requests_.erase(it);
  return true;
}

std::size_t StorageDevice::active_requests() const { return requests_.size(); }

}  // namespace ignem
