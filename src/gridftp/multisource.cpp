#include "gridftp/multisource.hpp"

#include <algorithm>

#include "gridftp/server.hpp"

namespace esg::gridftp {

using common::Errc;
using common::Error;
using common::Result;
using common::Status;

namespace {

struct MultiSourceState : std::enable_shared_from_this<MultiSourceState> {
  GridFtpClient* client = nullptr;
  std::vector<FtpUrl> replicas;
  std::string local_name;
  MultiSourceOptions options;
  std::function<void(MultiSourceResult)> done;

  MultiSourceResult result;
  std::vector<std::pair<Bytes, Bytes>> ranges;  // (offset, length)
  std::size_t outstanding = 0;
  bool failed = false;

  std::string range_local_name(std::size_t r) const {
    return local_name + "#range" + std::to_string(r);
  }

  void start() {
    result.started = client->simulation().now();
    // The size decides the split; ask the first replica.
    auto self = shared_from_this();
    client->size_of(replicas.front(), options.transfer,
                    [self](Result<Bytes> size) {
                      if (!size) return self->finish(Status(size.error()));
                      self->result.file_size = *size;
                      self->split_and_fetch();
                    });
  }

  void split_and_fetch() {
    std::size_t sources = replicas.size();
    if (options.max_sources > 0) {
      sources = std::min(sources, options.max_sources);
    }
    sources = std::max<std::size_t>(1, std::min<std::size_t>(
        sources, static_cast<std::size_t>(
                     std::max<Bytes>(1, result.file_size / (256 * 1024)))));
    result.sources = static_cast<int>(sources);

    const Bytes chunk = (result.file_size + static_cast<Bytes>(sources) - 1) /
                        static_cast<Bytes>(sources);
    for (std::size_t r = 0; r < sources; ++r) {
      const Bytes offset = static_cast<Bytes>(r) * chunk;
      const Bytes length =
          std::min(chunk, result.file_size - offset);
      if (length <= 0) break;
      ranges.emplace_back(offset, length);
    }
    outstanding = ranges.size();

    auto self = shared_from_this();
    for (std::size_t r = 0; r < ranges.size(); ++r) {
      // Each range pulls from "its" replica first, with the rest as
      // failover alternates (rotated so ranges spread across sources).
      std::vector<FtpUrl> order;
      for (std::size_t k = 0; k < replicas.size(); ++k) {
        order.push_back(replicas[(r + k) % replicas.size()]);
      }
      TransferOptions opts = options.transfer;
      opts.eret_module = GridFtpServer::kPartialModule;
      opts.eret_params = std::to_string(ranges[r].first) + ":" +
                         std::to_string(ranges[r].second);
      ReliableGet::start(*client, std::move(order), range_local_name(r),
                         opts, options.reliability,
                         [self](ReliableResult rr) {
                           self->range_finished(rr);
                         });
    }
  }

  void range_finished(const ReliableResult& rr) {
    result.total_attempts += rr.attempts;
    if (!rr.status.ok() && !failed) {
      failed = true;
      result.status = rr.status;
    }
    if (--outstanding > 0) return;
    if (failed) return finish(result.status);
    assemble();
  }

  void assemble() {
    // Concatenate ranges in order; bit-exact when content travelled.
    Bytes total = 0;
    bool have_content = true;
    std::vector<storage::FileObject> parts;
    for (std::size_t r = 0; r < ranges.size(); ++r) {
      auto f = client->local_storage().get(range_local_name(r));
      if (!f) return finish(Status(f.error()));
      total += f->size;
      have_content = have_content && f->content != nullptr;
      parts.push_back(std::move(*f));
    }
    storage::FileObject out;
    out.name = local_name;
    out.size = result.file_size;
    if (have_content) {
      auto data = std::make_shared<std::vector<std::uint8_t>>();
      data->reserve(static_cast<std::size_t>(total));
      for (const auto& p : parts) {
        data->insert(data->end(), p.content->begin(), p.content->end());
      }
      out.content = std::move(data);
      out.size = static_cast<Bytes>(out.content->size());
    }
    (void)client->local_storage().put(std::move(out));
    for (std::size_t r = 0; r < ranges.size(); ++r) {
      (void)client->local_storage().remove(range_local_name(r));
    }
    result.bytes_transferred = total;
    finish(common::ok_status());
  }

  void finish(Status status) {
    result.status = std::move(status);
    result.finished = client->simulation().now();
    done(std::move(result));
  }
};

}  // namespace

void multi_source_get(GridFtpClient& client, std::vector<FtpUrl> replicas,
                      const std::string& local_name,
                      const MultiSourceOptions& options,
                      std::function<void(MultiSourceResult)> done) {
  auto state = std::make_shared<MultiSourceState>();
  state->client = &client;
  state->replicas = std::move(replicas);
  state->local_name = local_name;
  state->options = options;
  state->done = std::move(done);
  if (state->replicas.empty()) {
    client.simulation().schedule_after(0, [state] {
      state->finish(Error{Errc::invalid_argument, "no replicas given"});
    });
    return;
  }
  state->start();
}

}  // namespace esg::gridftp
