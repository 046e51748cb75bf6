(* Journalling pump + select()-based Unix-domain-socket transport.
   See transport.mli for the contract. *)

(* ------------------------------------------------------------- pump -- *)

type pump = {
  mutable core : Core.t;
  journal : Journal.writer option;
  tick_every : int;
  snapshot_every : int;
  kill_after : int;  (* 0 = never *)
  mutable lines : int;  (* protocol lines applied over the run's life *)
}

let create_pump ~core ?journal ?(tick_every = 0) ?(snapshot_every = 0)
    ?(kill_after = 0) ?(lines_seen = 0) () =
  { core; journal; tick_every; snapshot_every; kill_after;
    lines = lines_seen }

let pump_core p = p.core

(* Journal first, apply second: a frame the core has seen is always a
   frame recovery can replay. [kill_after] fires between the two — the
   worst case the recovery argument must cover. *)
let journal_record p record =
  match p.journal with
  | None -> ()
  | Some w ->
      let seq = Journal.append w record in
      if p.kill_after > 0 && seq >= p.kill_after then (
        Journal.flush w;
        Unix.kill (Unix.getpid ()) Sys.sigkill)

let cut_snapshot p =
  match p.journal with
  | None -> ()
  | Some w -> (
      match Journal.snapshot w ~core_snapshot:(Core.snapshot p.core) with
      | Ok _ -> ()
      | Error e -> Fmt.epr "calc serve: snapshot failed: %s@." e)

let apply p input =
  let core, evs = Core.feed p.core input in
  p.core <- core;
  evs

let pump_tick p =
  journal_record p Journal.Tick;
  let evs = apply p Proto.Tick in
  if p.snapshot_every > 0
     && (Core.metrics p.core).Core.ticks mod p.snapshot_every = 0
  then cut_snapshot p;
  evs

let pump_line p line =
  journal_record p (Journal.Line line);
  let evs = apply p (Proto.Line line) in
  p.lines <- p.lines + 1;
  if p.tick_every > 0 && p.lines mod p.tick_every = 0 then
    evs @ pump_tick p
  else evs

let catch_up_ticks p =
  if p.tick_every = 0 then []
  else
    let owed =
      (p.lines / p.tick_every) - (Core.metrics p.core).Core.ticks
    in
    let rec go acc n = if n <= 0 then acc else go (acc @ pump_tick p) (n - 1) in
    go [] owed

let finalize p =
  match p.journal with
  | None -> Ok None
  | Some w -> (
      match Journal.snapshot w ~core_snapshot:(Core.snapshot p.core) with
      | Ok path ->
          Journal.close w;
          Ok (Some path)
      | Error e ->
          Journal.close w;
          Error e)

(* ---------------------------------------------------------- sockets -- *)

let max_line_bytes = 65_536
let max_out_bytes = 262_144

(* The daemon reads a connection at most this much at a time, into the
   one read buffer of the server; the client drains its replies and
   tops up its requests in blocks of [client_chunk]. *)
let read_chunk = 4096
let client_chunk = 65_536

(* A growable byte buffer whose live bytes are [data.[pos .. len)]:
   appends go at [len] and writers advance [pos]. The buffer never
   shrinks, so a steady stream reuses it without allocating. *)
type buf = { mutable data : Bytes.t; mutable pos : int; mutable len : int }

let new_buf () = { data = Bytes.empty; pos = 0; len = 0 }
let pending q = q.len - q.pos

let consume q n =
  q.pos <- q.pos + n;
  if q.pos = q.len then (
    q.pos <- 0;
    q.len <- 0)

(* Room for [n] more bytes at [len]. The live bytes move to the front
   only when at least as many bytes were consumed before them, which
   pays for the move; otherwise the buffer doubles. *)
let reserve q n =
  if q.len + n > Bytes.length q.data then (
    let live = pending q in
    let data =
      if live + n <= Bytes.length q.data && q.pos >= live then q.data
      else Bytes.create (max (live + n) (max 256 (2 * Bytes.length q.data)))
    in
    Bytes.blit q.data q.pos data 0 live;
    q.data <- data;
    q.pos <- 0;
    q.len <- live)

let add_subbytes q b off n =
  reserve q n;
  Bytes.blit b off q.data q.len n;
  q.len <- q.len + n

let add_line q s =
  let n = String.length s in
  reserve q (n + 1);
  Bytes.blit_string s 0 q.data q.len n;
  Bytes.set q.data (q.len + n) '\n';
  q.len <- q.len + n + 1

type conn = {
  fd : Unix.file_descr;
  part : buf;  (* an unterminated line, received across earlier reads *)
  out : buf;  (* reply bytes not yet written *)
  mutable in_eof : bool;
}

let rec index_newline b i n =
  if i >= n then -1
  else if Bytes.unsafe_get b i = '\n' then i
  else index_newline b (i + 1) n

(* Feed one protocol line and queue its replies. *)
let feed_line pump c line =
  List.iter (fun e -> add_line c.out (Proto.print_event e)) (pump_line pump line)

(* The line held in [c.part] plus [b.[off .. off + n)], which ends it. *)
let take_line c b off n =
  if pending c.part = 0 then Bytes.sub_string b off n
  else (
    add_subbytes c.part b off n;
    let line = Bytes.sub_string c.part.data c.part.pos (pending c.part) in
    consume c.part (pending c.part);
    line)

(* Feed the complete lines of a freshly read chunk [b.[0 .. n)], each
   copied out once, and keep its unterminated tail for the next read;
   [Error ()] means the peer must be dropped: an unterminated line past
   the transport cap, or a reply backlog past the slow-consumer cap. *)
let feed_conn pump c b n =
  let rec go off =
    match index_newline b off n with
    | -1 -> add_subbytes c.part b off (n - off)
    | i ->
        feed_line pump c (take_line c b off (i - off));
        go (i + 1)
  in
  go 0;
  if pending c.part > max_line_bytes || pending c.out > max_out_bytes then
    Error ()
  else Ok ()

let close_conn c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let serve_socket ~pump ~path ~max_conns () =
  if max_conns < 1 then Error "max-conns must be >= 1"
  else
    let stop = ref false in
    let old_term =
      Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop := true))
    in
    let old_int =
      Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := true))
    in
    let old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
    let restore_signals () =
      Sys.set_signal Sys.sigterm old_term;
      Sys.set_signal Sys.sigint old_int;
      Sys.set_signal Sys.sigpipe old_pipe
    in
    (try if Sys.file_exists path then Sys.remove path
     with Sys_error _ -> ());
    let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.bind listener (Unix.ADDR_UNIX path) with
    | exception Unix.Unix_error (e, _, _) ->
        restore_signals ();
        (try Unix.close listener with Unix.Unix_error _ -> ());
        Error (Fmt.str "cannot bind %s: %s" path (Unix.error_message e))
    | () ->
        Unix.listen listener max_conns;
        let conns = ref [] in
        let drop c =
          close_conn c;
          conns := List.filter (fun c' -> c'.fd != c.fd) !conns
        in
        let accept_one () =
          match Unix.accept listener with
          | exception Unix.Unix_error _ -> ()
          | fd, _ ->
              if List.length !conns >= max_conns then (
                (try ignore (Unix.write_substring fd "busy\n" 0 5)
                 with Unix.Unix_error _ -> ());
                try Unix.close fd with Unix.Unix_error _ -> ())
              else
                conns :=
                  { fd; part = new_buf (); out = new_buf (); in_eof = false }
                  :: !conns
        in
        let rbuf = Bytes.create read_chunk in
        let read_one c =
          match Unix.read c.fd rbuf 0 read_chunk with
          | exception Unix.Unix_error _ -> drop c
          | 0 ->
              c.in_eof <- true;
              (* an unterminated final line still counts, like the last
                 line of a file *)
              if pending c.part > 0 then (
                feed_line pump c (take_line c rbuf 0 0);
                if pending c.out > max_out_bytes then drop c);
              if pending c.out = 0 then drop c
          | n -> (
              match feed_conn pump c rbuf n with
              | Ok () -> ()
              | Error () -> drop c)
        in
        let write_one c =
          match Unix.write c.fd c.out.data c.out.pos (pending c.out) with
          | exception Unix.Unix_error _ -> drop c
          | n ->
              consume c.out n;
              if pending c.out = 0 && c.in_eof then drop c
        in
        while not !stop do
          let readers =
            listener
            :: List.filter_map
                 (fun c -> if c.in_eof then None else Some c.fd)
                 !conns
          in
          let writers =
            List.filter_map
              (fun c -> if pending c.out > 0 then Some c.fd else None)
              !conns
          in
          match Unix.select readers writers [] 0.2 with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | rs, ws, _ ->
              if List.memq listener rs then accept_one ();
              List.iter
                (fun c -> if List.memq c.fd rs then read_one c)
                !conns;
              List.iter
                (fun c -> if List.memq c.fd ws then write_one c)
                !conns
        done;
        List.iter close_conn !conns;
        (try Unix.close listener with Unix.Unix_error _ -> ());
        (try Sys.remove path with Sys_error _ -> ());
        restore_signals ();
        Ok ()

let client ~path ic =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Fmt.str "cannot connect to %s: %s" path (Unix.error_message e))
  | () ->
      let old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
      let out = new_buf () in  (* request bytes not yet sent *)
      let replies = Bytes.create client_chunk in
      let in_eof = ref false in
      let sent_fin = ref false in
      let server_eof = ref false in
      (* Requests go out as the channel's bytes, up to [client_chunk]
         pending; an unterminated last line reaches the daemon as one,
         and the daemon counts it like the last line of a file. *)
      let refill () =
        let room = client_chunk - pending out in
        if (not !in_eof) && room > 0 then (
          reserve out room;
          match In_channel.input ic out.data out.len room with
          | 0 -> in_eof := true
          | n -> out.len <- out.len + n)
      in
      let result =
        try
          while not !server_eof do
            refill ();
            if pending out = 0 && !in_eof && not !sent_fin then (
              Unix.shutdown fd Unix.SHUTDOWN_SEND;
              sent_fin := true);
            let writers = if pending out > 0 then [ fd ] else [] in
            match Unix.select [ fd ] writers [] 0.2 with
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
            | rs, ws, _ ->
                (* A full block of replies means more are waiting: drain
                   them before sending more requests, so replies do not
                   pile up in the daemon. *)
                let full =
                  rs <> []
                  &&
                  match Unix.read fd replies 0 client_chunk with
                  | 0 ->
                      server_eof := true;
                      false
                  | n ->
                      Out_channel.output stdout replies 0 n;
                      n = client_chunk
                in
                if ws <> [] && (not full) && not !server_eof then
                  consume out (Unix.write fd out.data out.pos (pending out))
          done;
          Ok ()
        with Unix.Unix_error (e, _, _) ->
          Error (Fmt.str "connection to %s failed: %s" path
                   (Unix.error_message e))
      in
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Sys.set_signal Sys.sigpipe old_pipe;
      result
