(** Front-end plumbing of the daemon: the journalling pump and the
    Unix-domain-socket transport.

    The {!pump} is the single write path shared by every front-end (file
    loop, socket server, crash harness): each input frame is journalled
    {e before} it reaches {!Core}, logical ticks are injected on a
    per-frame cadence (and journalled like any other frame, so replay
    re-applies exactly the ticks the original run saw), and snapshots
    are cut on a tick cadence. The socket server is a single-threaded
    [select] loop: connections are independent failure domains — a
    hostile over-long line, a slow consumer or a dead peer costs that
    one connection and nothing else. *)

type pump

val create_pump :
  core:Core.t ->
  ?journal:Journal.writer ->
  ?tick_every:int ->
  ?snapshot_every:int ->
  ?kill_after:int ->
  ?lines_seen:int ->
  unit ->
  pump
(** [tick_every] injects a {!Proto.Tick} after every that-many lines
    (0: never); [snapshot_every] cuts a journal snapshot every that-many
    ticks (0: only the final one); [kill_after] SIGKILLs the process
    right after journalling (and flushing) frame number that-many — the
    deterministic kill point of the crash harness; [lines_seen] seeds
    the line counter on resume so the tick cadence stays aligned with
    the uninterrupted run. *)

val pump_line : pump -> string -> Proto.event list
(** Journal and apply one protocol line, plus the cadence tick it may
    trigger; returns every resulting event in order. *)

val pump_tick : pump -> Proto.event list

val catch_up_ticks : pump -> Proto.event list
(** Resume-boundary repair: if the crash fell between a journalled line
    that completed a tick period and its (never-journalled) tick, inject
    the owed tick now — journalled normally, so the repair itself is
    crash-safe. No-op when the cadence is off or nothing is owed. *)

val pump_core : pump -> Core.t

val finalize : pump -> (string option, string) result
(** Flush the journal and cut a final snapshot; returns its path, or
    [None] when the pump has no journal. *)

(* ------------------------------------------------------------ sockets -- *)

val max_line_bytes : int
(** Transport cap on one line (far above the protocol's own line limit,
    so the core still gets to reject over-long frames deterministically);
    a connection that exceeds it without a newline is dropped. *)

val max_out_bytes : int
(** Per-connection reply backlog cap; a consumer slower than this is
    dropped rather than allowed to wedge the daemon. *)

val serve_socket :
  pump:pump ->
  path:string ->
  max_conns:int ->
  unit ->
  (unit, string) result
(** Bind [path] and serve until SIGTERM/SIGINT. Each connection streams
    protocol lines in and gets its own frames' event lines back. Beyond
    [max_conns] concurrent connections, new ones are told ["busy"] and
    closed. Returns after the drain signal; the caller finalizes the
    pump and prints the summary. *)

val client : path:string -> In_channel.t -> (unit, string) result
(** Connect to a serving daemon, stream the channel's lines to it, print
    every reply line to stdout; returns once the daemon closes the
    connection after our end of stream. Each round reads up to 64KiB of
    replies and sends no requests in a round whose read filled that
    buffer, so a client streaming a large file drains its replies as it
    goes instead of leaving them to the daemon's slow-consumer cap. *)
