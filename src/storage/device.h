// Storage device model: a bandwidth channel plus per-request access latency.
//
// A request first pays an access latency (seek + controller overhead, with
// optional jitter so measured distributions have realistic spread), then
// joins the device's shared bandwidth channel. Reads and writes share the
// same channel — concurrent writers slow readers down, as on real media.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/rng.h"
#include "common/units.h"
#include "storage/bandwidth_resource.h"

namespace ignem {

enum class MediaType { kHdd, kSsd, kRam };

const char* media_name(MediaType type);

/// Static description of one device.
struct DeviceProfile {
  MediaType media = MediaType::kHdd;
  BandwidthProfile bandwidth;
  Duration access_latency = Duration::zero();  ///< Mean per-request latency.
  double access_jitter = 0.0;  ///< Latency is uniform in mean*(1 +/- jitter).
};

/// Calibrated profiles for the three media classes in the paper's testbed
/// (§IV-A: 1 TB HDD, SSD comparison in §II-B, 128 GB RAM). Constants are
/// chosen once to land the motivation ratios (Fig. 1: RAM ~160x HDD and
/// ~7x SSD at 64 MB-block granularity under mapper concurrency) and held
/// fixed for all macro experiments.
DeviceProfile hdd_profile();
DeviceProfile ssd_profile();
DeviceProfile ram_profile();
DeviceProfile profile_for(MediaType type);

class StorageDevice {
 public:
  using Callback = std::function<void()>;

  StorageDevice(Simulator& sim, std::string name, DeviceProfile profile,
                Rng rng);

  StorageDevice(const StorageDevice&) = delete;
  StorageDevice& operator=(const StorageDevice&) = delete;

  /// Starts a read of `bytes`; `on_complete` fires when the data is in memory.
  TransferHandle read(Bytes bytes, Callback on_complete);

  /// Starts a write of `bytes`.
  TransferHandle write(Bytes bytes, Callback on_complete);

  /// Aborts an outstanding request (in latency phase or transfer phase).
  bool abort(TransferHandle handle);

  std::size_t active_requests() const;
  Bytes total_bytes_completed() const { return channel_.total_bytes_completed(); }
  Duration busy_time() const { return channel_.busy_time(); }

  const std::string& name() const { return name_; }
  MediaType media() const { return profile_.media; }
  const DeviceProfile& profile() const { return profile_; }

  /// Wires the bandwidth channel's kBandwidthChange stream; `node`
  /// attributes the device to its owner.
  void set_trace(TraceRecorder* trace, NodeId node);

 private:
  struct PendingRequest;

  TransferHandle submit(Bytes bytes, Callback on_complete);
  Duration sample_access_latency();

  Simulator& sim_;
  std::string name_;
  DeviceProfile profile_;
  Rng rng_;
  SharedBandwidthResource channel_;

  // Outstanding requests, keyed by our public handle: the access-latency
  // timer until it fires, then the channel transfer. The entry keeps the
  // caller's callback, so neither phase's closure carries it. Looked up by
  // id only, never walked.
  struct Request {
    bool in_latency = true;
    EventHandle timer;
    TransferHandle channel_handle;
    Callback on_complete;
  };
  std::unordered_map<std::uint64_t, Request> requests_;
  std::uint64_t next_id_ = 1;
};

}  // namespace ignem
