#include "lepton/context.h"

namespace lepton {

CodecContext::CodecContext(int workers)
    : pool_(workers < 0 ? 0 : static_cast<std::size_t>(workers)) {}

CodecContext::ScratchLease CodecContext::acquire_scratch() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++leased_;
    if (!free_.empty()) {
      auto s = std::move(free_.back());
      free_.pop_back();
      return {this, std::move(s)};
    }
    ++total_blocks_;
  }
  // Allocate outside the lock: model construction is the expensive part and
  // only happens until the pool reaches peak concurrency.
  return {this, std::make_unique<CodecScratch>()};
}

void CodecContext::release(std::unique_ptr<CodecScratch> s) {
  std::lock_guard<std::mutex> lk(mu_);
  --leased_;
  free_.push_back(std::move(s));
}

std::size_t CodecContext::leased_scratch() const {
  std::lock_guard<std::mutex> lk(mu_);
  return leased_;
}

std::size_t CodecContext::scratch_blocks() const {
  std::lock_guard<std::mutex> lk(mu_);
  return total_blocks_;
}

Result CodecContext::encode(std::span<const std::uint8_t> jpeg,
                            const EncodeOptions& opts) {
  return encode_jpeg(jpeg, opts, *this);
}

util::ExitCode CodecContext::decode(std::span<const std::uint8_t> lep,
                                    ByteSink& sink, const DecodeOptions& opts,
                                    DecodeStats* stats) {
  return decode_lepton(lep, sink, opts, *this, stats);
}

Result CodecContext::decode(std::span<const std::uint8_t> lep,
                            const DecodeOptions& opts) {
  Result r;
  VectorSink sink;
  r.code = decode_lepton(lep, sink, opts, *this, nullptr);
  r.data = std::move(sink.data);
  return r;
}

CodecContext& default_context() {
  // Spawned once per process, before any untrusted input is parsed — the
  // §5.1 pre-SECCOMP ordering. Never destroyed before exit.
  static CodecContext ctx(8);
  return ctx;
}

}  // namespace lepton
