#include "hpo/checkpoint.h"

#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/rng.h"

namespace bhpo {

namespace {

constexpr char kMagic[8] = {'B', 'H', 'P', 'O', 'C', 'K', 'P', '1'};

uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t h = 14695981039346656037ull;
  for (char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// --- payload writer --------------------------------------------------------

void AppendU64(std::string* out, uint64_t v) {
  char buf[sizeof(v)];
  std::memcpy(buf, &v, sizeof(v));
  out->append(buf, sizeof(v));
}

void AppendU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

// Doubles travel as raw bit patterns: the loaded score is the same double
// to the last bit, which the resume bit-identity contract depends on.
void AppendDouble(std::string* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  AppendU64(out, bits);
}

void AppendString(std::string* out, const std::string& s) {
  AppendU64(out, s.size());
  out->append(s);
}

void AppendConfiguration(std::string* out, const Configuration& config) {
  AppendU64(out, config.items().size());
  for (const auto& [name, value] : config.items()) {
    AppendString(out, name);
    AppendString(out, value);
  }
}

// --- payload reader --------------------------------------------------------

// Bounds-checked cursor over the payload; every Read* fails closed instead
// of walking off the end of a truncated or corrupt buffer.
class Reader {
 public:
  explicit Reader(const std::string& bytes) : bytes_(bytes) {}

  Status ReadU64(uint64_t* v) {
    BHPO_RETURN_NOT_OK(Need(sizeof(*v)));
    std::memcpy(v, bytes_.data() + pos_, sizeof(*v));
    pos_ += sizeof(*v);
    return Status::OK();
  }

  Status ReadU8(uint8_t* v) {
    BHPO_RETURN_NOT_OK(Need(1));
    *v = static_cast<uint8_t>(bytes_[pos_++]);
    return Status::OK();
  }

  Status ReadDouble(double* v) {
    uint64_t bits = 0;
    BHPO_RETURN_NOT_OK(ReadU64(&bits));
    std::memcpy(v, &bits, sizeof(*v));
    return Status::OK();
  }

  Status ReadString(std::string* s) {
    uint64_t size = 0;
    BHPO_RETURN_NOT_OK(ReadU64(&size));
    BHPO_RETURN_NOT_OK(Need(size));
    s->assign(bytes_.data() + pos_, size);
    pos_ += size;
    return Status::OK();
  }

  Status ReadConfiguration(Configuration* config) {
    uint64_t items = 0;
    BHPO_RETURN_NOT_OK(ReadU64(&items));
    for (uint64_t i = 0; i < items; ++i) {
      std::string name, value;
      BHPO_RETURN_NOT_OK(ReadString(&name));
      BHPO_RETURN_NOT_OK(ReadString(&value));
      config->Set(name, value);
    }
    return Status::OK();
  }

  bool exhausted() const { return pos_ == bytes_.size(); }

 private:
  Status Need(uint64_t n) {
    if (n > bytes_.size() - pos_) {
      return Status::IoError("checkpoint payload truncated");
    }
    return Status::OK();
  }

  const std::string& bytes_;
  size_t pos_ = 0;
};

std::string SerializeState(const CheckpointState& state) {
  std::string payload;
  AppendString(&payload, state.method);
  AppendString(&payload, state.run_tag);
  AppendU64(&payload, state.eval_root);
  AppendU64(&payload, state.rungs_completed);
  AppendU64(&payload, state.num_evaluations);
  AppendU64(&payload, state.total_instances);
  AppendU64(&payload, state.faults.failed_evals);
  AppendU64(&payload, state.faults.failed_folds);
  AppendU64(&payload, state.faults.quarantined_folds);
  AppendU64(&payload, state.faults.timed_out_folds);
  AppendU64(&payload, state.faults.fold_retries);
  AppendU64(&payload, state.faults.injected_faults);
  AppendU64(&payload, state.survivors.size());
  for (const Configuration& config : state.survivors) {
    AppendConfiguration(&payload, config);
  }
  AppendU64(&payload, state.history.size());
  for (const EvaluationRecord& record : state.history) {
    AppendConfiguration(&payload, record.config);
    AppendDouble(&payload, record.score);
    AppendU64(&payload, record.budget);
    AppendU8(&payload, record.eval_failed ? 1 : 0);
  }
  return payload;
}

Status DeserializeState(const std::string& payload, CheckpointState* state) {
  Reader reader(payload);
  BHPO_RETURN_NOT_OK(reader.ReadString(&state->method));
  BHPO_RETURN_NOT_OK(reader.ReadString(&state->run_tag));
  BHPO_RETURN_NOT_OK(reader.ReadU64(&state->eval_root));
  uint64_t u = 0;
  BHPO_RETURN_NOT_OK(reader.ReadU64(&u));
  state->rungs_completed = u;
  BHPO_RETURN_NOT_OK(reader.ReadU64(&u));
  state->num_evaluations = u;
  BHPO_RETURN_NOT_OK(reader.ReadU64(&u));
  state->total_instances = u;
  BHPO_RETURN_NOT_OK(reader.ReadU64(&u));
  state->faults.failed_evals = u;
  BHPO_RETURN_NOT_OK(reader.ReadU64(&u));
  state->faults.failed_folds = u;
  BHPO_RETURN_NOT_OK(reader.ReadU64(&u));
  state->faults.quarantined_folds = u;
  BHPO_RETURN_NOT_OK(reader.ReadU64(&u));
  state->faults.timed_out_folds = u;
  BHPO_RETURN_NOT_OK(reader.ReadU64(&u));
  state->faults.fold_retries = u;
  BHPO_RETURN_NOT_OK(reader.ReadU64(&u));
  state->faults.injected_faults = u;
  uint64_t count = 0;
  BHPO_RETURN_NOT_OK(reader.ReadU64(&count));
  state->survivors.clear();
  for (uint64_t i = 0; i < count; ++i) {
    Configuration config;
    BHPO_RETURN_NOT_OK(reader.ReadConfiguration(&config));
    state->survivors.push_back(std::move(config));
  }
  BHPO_RETURN_NOT_OK(reader.ReadU64(&count));
  state->history.clear();
  for (uint64_t i = 0; i < count; ++i) {
    EvaluationRecord record;
    BHPO_RETURN_NOT_OK(reader.ReadConfiguration(&record.config));
    BHPO_RETURN_NOT_OK(reader.ReadDouble(&record.score));
    BHPO_RETURN_NOT_OK(reader.ReadU64(&u));
    record.budget = u;
    uint8_t failed = 0;
    BHPO_RETURN_NOT_OK(reader.ReadU8(&failed));
    record.eval_failed = failed != 0;
    state->history.push_back(std::move(record));
  }
  if (!reader.exhausted()) {
    return Status::IoError("checkpoint payload has trailing bytes");
  }
  return Status::OK();
}

}  // namespace

Status SaveCheckpoint(const std::string& path, const CheckpointState& state,
                      FaultInjector* faults) {
  if (path.empty()) return Status::InvalidArgument("empty checkpoint path");
  std::string payload = SerializeState(state);

  std::string file;
  file.reserve(sizeof(kMagic) + 16 + payload.size() + 8);
  file.append(kMagic, sizeof(kMagic));
  uint64_t header = static_cast<uint64_t>(kCheckpointVersion);  // reserved=0
  AppendU64(&file, header);
  AppendU64(&file, payload.size());
  file.append(payload);
  AppendU64(&file, Fnv1a64(payload));

  // The torn-write site is a pure function of (fault seed, run identity,
  // rung), so the same rung's write fails on every replay of the run.
  bool torn = MaybeInject(faults, FaultPoint::kCheckpointTornWrite,
                          MixSeed(state.eval_root, state.rungs_completed),
                          /*attempt=*/0) != FaultKind::kNone;
  std::string tmp = path + ".tmp";
  size_t write_size = torn ? file.size() / 2 : file.size();
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::IoError("cannot open checkpoint tmp file: " + tmp);
    }
    out.write(file.data(), static_cast<std::streamsize>(write_size));
    out.flush();
    if (!out) return Status::IoError("checkpoint write failed: " + tmp);
  }
  if (torn) {
    // Simulated crash mid-write: the truncated tmp file is left behind and
    // `path` still holds the previous complete checkpoint.
    return Status::Unavailable("injected fault: torn checkpoint write");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IoError("checkpoint rename failed: " + tmp + " -> " +
                           path);
  }
  return Status::OK();
}

Result<CheckpointState> LoadCheckpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open checkpoint: " + path);
  std::string file((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (file.size() < sizeof(kMagic) + 16 + 8) {
    return Status::IoError("checkpoint file truncated: " + path);
  }
  if (std::memcmp(file.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::IoError("not a checkpoint file (bad magic): " + path);
  }
  uint64_t header = 0;
  std::memcpy(&header, file.data() + sizeof(kMagic), sizeof(header));
  uint32_t version = static_cast<uint32_t>(header & 0xffffffffu);
  if (version != kCheckpointVersion) {
    return Status::IoError("unsupported checkpoint version " +
                           std::to_string(version));
  }
  // The checksum covers only the payload, so the reserved word is checked
  // here: a flipped bit must not load silently.
  if ((header >> 32) != 0) {
    return Status::IoError("checkpoint reserved header bits are not zero: " +
                           path);
  }
  uint64_t payload_size = 0;
  std::memcpy(&payload_size, file.data() + sizeof(kMagic) + 8,
              sizeof(payload_size));
  size_t payload_start = sizeof(kMagic) + 16;
  if (payload_size != file.size() - payload_start - 8) {
    return Status::IoError("checkpoint file truncated: " + path);
  }
  std::string payload = file.substr(payload_start, payload_size);
  uint64_t stored_checksum = 0;
  std::memcpy(&stored_checksum, file.data() + payload_start + payload_size,
              sizeof(stored_checksum));
  if (Fnv1a64(payload) != stored_checksum) {
    return Status::IoError("checkpoint checksum mismatch: " + path);
  }
  CheckpointState state;
  BHPO_RETURN_NOT_OK(DeserializeState(payload, &state));
  return state;
}

}  // namespace bhpo
