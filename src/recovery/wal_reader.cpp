#include "recovery/wal_reader.h"

namespace staleflow::recovery {

WalScan scan_wal(const std::string& path) {
  static constexpr framed::FrameFormat kWal{
      .magic = std::string_view(kWalMagic, sizeof(kWalMagic)),
      .max_payload = kMaxRecordPayload,
      .min_type = static_cast<std::uint32_t>(RecordType::kRunHeader),
      .max_type = static_cast<std::uint32_t>(RecordType::kTrailer),
      .caller = "scan_wal",
      .noun = "a WAL",
  };
  return framed::scan_typed<RecordType>(path, kWal);
}

}  // namespace staleflow::recovery
