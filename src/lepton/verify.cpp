#include "lepton/verify.h"

#include "lepton/store.h"

namespace lepton {

void QualificationRunner::run_file(std::span<const std::uint8_t> file,
                                   QualificationReport* rep) {
  ++rep->files;
  Result enc = encode_jpeg(file, opts_);
  auto code_idx = static_cast<std::size_t>(enc.code);
  if (!enc.ok()) {
    ++rep->rejected;
    ++rep->by_code[code_idx];
    return;
  }

  // Decode #1: production configuration (multithreaded), through the one
  // §5.7 container check: byte-identical to the input, arithmetic payload
  // exactly consumed. A "successful" decode that overran or left payload
  // unconsumed is a corrupt stream that happened to produce the right byte
  // count, and must not be admitted.
  DecodeOptions par;
  par.run_parallel = true;
  ContainerCheck d1 =
      check_container({enc.data.data(), enc.data.size()}, file, par);

  // Decode #2: independent schedule (the gcc/asan single-threaded build in
  // production, §5.2/§5.6).
  DecodeOptions ser;
  ser.run_parallel = false;
  Result d2 = decode_lepton({enc.data.data(), enc.data.size()}, ser);
  if (mutator_) mutator_(d2.data);

  if (!d1.ok()) {
    ++rep->mismatches;
    ++rep->by_code[static_cast<std::size_t>(util::ExitCode::kRoundtripFailed)];
    rep->alerts.push_back(
        d1.stats.payload_overrun
            ? "decoder overran its arithmetic payload (truncation, §5.7)"
        : d1.code == util::ExitCode::kShortRead
            ? "arithmetic payload left unconsumed (§5.7)"
            : "round-trip mismatch (pages the on-call, §5.7)");
    return;
  }
  if (!d2.ok() || d2.data != d1.bytes) {
    ++rep->nondeterminism;
    rep->alerts.push_back(
        "two decodes of one file disagree: nondeterminism (§5.2)");
    return;
  }
  ++rep->admitted;
  ++rep->by_code[static_cast<std::size_t>(util::ExitCode::kSuccess)];
}

}  // namespace lepton
