#pragma once

#include <unistd.h>

#include <cstdio>
#include <functional>
#include <vector>

#include "core/flags.hpp"
#include "serve/server.hpp"

namespace naas::serve {

/// Appends the flags of every line front end to `*table`: --listen (which
/// sets `*listen`), --max-connections, --max-queue, --deadline-ms,
/// --idle-timeout-ms, --max-line-bytes and --max-batch into `*options`,
/// and --faults, which arms core::FaultInjector.
void add_front_end_flags(std::vector<core::Flag>* table, bool* listen,
                         ServerOptions* options);

/// Makes SIGINT and SIGTERM drain serve_lines. Install it before booting
/// the handler: a signal that lands earlier makes serve_lines drain at
/// once.
void install_drain_signals();

/// The line front end of naas_serve and naas_router. With `listen`, serves
/// `handler` over TCP through serve::Server until a drain signal.
/// Otherwise reads one request per line from `in_fd`: a blank or
/// whitespace-only line submits the lines since the previous one as one
/// handle_lines call, and end of input or a drain signal submits the rest.
/// Responses go to `out` in request order. A line over max_line_bytes, or
/// past max_batch_requests admitted lines, is answered with a bad_request
/// in its slot and counted by note_protocol_reject, never handled; a batch
/// of such lines still makes one (empty) handle_lines call. Every
/// refresh_every_batches-th batch is followed by refresh().
///
/// Then calls `summary`, which prints the caller's exit lines, and prints
/// the transport line (TCP) and the faults line (when armed) to stderr,
/// each prefixed "<tag>: ". Returns the exit code: 0, or 1 when the
/// listener cannot start.
int serve_lines(LineHandler& handler, bool listen,
                const ServerOptions& options, const char* tag,
                const std::function<void()>& summary,
                int in_fd = STDIN_FILENO, std::FILE* out = stdout);

}  // namespace naas::serve
