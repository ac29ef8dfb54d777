#include "trace/trace_reader.h"

#include <stdexcept>
#include <utility>

#include "util/binio.h"

namespace staleflow::trace {

TraceScan scan_trace(const std::string& path) {
  static constexpr framed::FrameFormat kTrace{
      .magic = std::string_view(kTraceMagic, sizeof(kTraceMagic)),
      .max_payload = kMaxTracePayload,
      .min_type = static_cast<std::uint32_t>(TraceRecordType::kTraceHeader),
      .max_type = static_cast<std::uint32_t>(TraceRecordType::kTraceTrailer),
      .caller = "scan_trace",
      .noun = "a trace",
  };
  return framed::scan_typed<TraceRecordType>(path, kTrace);
}

LoadedTrace load_trace(const std::string& path) {
  const TraceScan scan = scan_trace(path);
  LoadedTrace trace;
  trace.truncated = scan.truncated;
  trace.valid_bytes = scan.valid_bytes;
  trace.note = scan.note;

  bool saw_header = false;
  for (std::size_t i = 0; i < scan.records.size(); ++i) {
    const TraceRecord& record = scan.records[i];
    try {
      binio::Reader reader(record.payload);
      switch (record.type) {
        case TraceRecordType::kTraceHeader: {
          if (saw_header) {
            throw std::runtime_error("duplicate trace header");
          }
          trace.version = reader.u32();
          if (trace.version != kTraceVersion) {
            throw std::runtime_error("unknown trace version");
          }
          trace.producer = reader.str();
          saw_header = true;
          break;
        }
        case TraceRecordType::kEventBatch: {
          const std::uint32_t worker = reader.u32();
          const std::uint64_t count = reader.u64();
          for (std::uint64_t k = 0; k < count; ++k) {
            LoadedEvent loaded;
            loaded.worker = worker;
            loaded.event = decode_event(reader);
            trace.events.push_back(loaded);
          }
          break;
        }
        case TraceRecordType::kCounterDefs: {
          const std::uint64_t count = reader.u64();
          for (std::uint64_t k = 0; k < count; ++k) {
            const std::uint32_t id = reader.u32();
            std::string name = reader.str();
            if (id != trace.counter_names.size()) {
              throw std::runtime_error("non-dense counter ids");
            }
            trace.counter_names.push_back(std::move(name));
          }
          break;
        }
        case TraceRecordType::kCounterBatch: {
          CounterBatch batch;
          batch.time_ns = reader.u64();
          const std::uint64_t count = reader.u64();
          for (std::uint64_t k = 0; k < count; ++k) {
            const std::uint32_t id = reader.u32();
            const std::uint64_t value = reader.u64();
            if (id >= trace.counter_names.size()) {
              throw std::runtime_error("counter sample before its def");
            }
            batch.values.emplace_back(id, value);
          }
          trace.counter_batches.push_back(std::move(batch));
          break;
        }
        case TraceRecordType::kTraceTrailer: {
          trace.trailer_events = reader.u64();
          trace.trailer_dropped = reader.u64();
          trace.clean_shutdown = true;
          break;
        }
      }
      if (!saw_header) {
        throw std::runtime_error("first record is not the trace header");
      }
    } catch (const std::exception& err) {
      // A checksum-valid frame with an undecodable payload: stop
      // trusting the file here, keep everything before it.
      trace.truncated = true;
      trace.valid_bytes =
          i == 0 ? sizeof(kTraceMagic) : scan.records[i - 1].end_offset;
      trace.note = std::string("corrupt payload: ") + err.what();
      trace.clean_shutdown = false;
      break;
    }
  }
  if (!saw_header && !trace.truncated) {
    trace.truncated = true;
    trace.note = "empty trace: no header record";
  }
  return trace;
}

}  // namespace staleflow::trace
