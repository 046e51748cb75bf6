(* End-to-end tests of the Unix-domain-socket transport: a forked child
   runs the daemon loop, the parent speaks the wire protocol. Covers the
   happy path (events stream back per connection), per-connection fault
   containment (a hostile over-long line costs only its own connection),
   the bounded-accept busy reply, graceful SIGTERM drain with a journal
   snapshot on the way down, bulk and fragmented streams whose socket
   transcript must equal the file-mode one, and a slow consumer that
   is kicked alone. *)

open Cal
open Test_support
module Config = Service.Config
module Core = Service.Core
module Transport = Service.Transport
module Journal = Service.Journal
module Proto = Service.Proto

let t name f = Alcotest.test_case name `Quick f

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then (
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path)
    else Sys.remove path

let scratch =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Fmt.str "cal-transport-%d-%d" (Unix.getpid ()) !counter)

let spec_for oid = Some (Spec_counter.spec ~oid ())

let small_config =
  { Config.default with
    max_sessions = 8; max_pending = 4; window_max = 12; memory_budget = 64 }

(* Fork a daemon serving [sock]; on drain it writes its final metrics
   line to [result_file]. The child never returns into alcotest. *)
let fork_server ?journal_dir ~sock ~max_conns ~result_file () =
  match Unix.fork () with
  | 0 ->
      let status =
        try
          let core =
            match Core.create ~config:small_config ~spec_for () with
            | Ok c -> c
            | Error _ -> exit 2
          in
          let journal =
            match journal_dir with
            | None -> None
            | Some dir -> (
                match
                  Journal.create ~dir
                    ~durability:Config.default_durability ()
                with
                | Ok w -> Some w
                | Error _ -> exit 2)
          in
          let pump =
            Transport.create_pump ~core ?journal ~tick_every:4 ()
          in
          match Transport.serve_socket ~pump ~path:sock ~max_conns () with
          | Error _ -> 3
          | Ok () -> (
              let m = Core.metrics (Transport.pump_core pump) in
              Out_channel.with_open_text result_file (fun oc ->
                  Fmt.pf
                    (Format.formatter_of_out_channel oc)
                    "frames=%d ops=%d violations=%d@." m.Core.frames
                    m.Core.ops m.Core.violations);
              match Transport.finalize pump with
              | Ok _ -> 0
              | Error _ -> 4)
        with _ -> 5
      in
      Unix._exit status
  | pid ->
      (* wait for the socket to come up *)
      let rec wait n =
        if n = 0 then Alcotest.fail "server socket never appeared"
        else if Sys.file_exists sock then ()
        else (
          Unix.sleepf 0.02;
          wait (n - 1))
      in
      wait 250;
      pid

let stop_server pid =
  Unix.kill pid Sys.sigterm;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED code ->
      Alcotest.(check int) "server drained cleanly" 0 code
  | _, _ -> Alcotest.fail "server did not exit"

(* Run [f] against a forked daemon. Should [f] raise, the daemon is
   killed first, so a failing test leaves no process behind. *)
let with_server ~sock ~max_conns ~result_file f =
  let pid = fork_server ~sock ~max_conns ~result_file () in
  try f pid
  with e ->
    (try
       Unix.kill pid Sys.sigkill;
       ignore (Unix.waitpid [] pid)
     with Unix.Unix_error _ -> ());
    raise e

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  fd

let send fd s = ignore (Unix.write_substring fd s 0 (String.length s))

let recv_all fd =
  let b = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 4096 with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes b chunk 0 n;
        go ()
  in
  (try go () with Unix.Unix_error _ -> ());
  Buffer.contents b

(* send a whole request, half-close, read the full reply *)
let round_trip sock lines =
  let fd = connect sock in
  send fd (String.concat "" (List.map (fun l -> l ^ "\n") lines));
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  let reply = recv_all fd in
  Unix.close fd;
  reply

let counter_lines o n =
  List.concat
    (List.init n (fun i ->
         [ Fmt.str "t1 inv %s.incr ()" o; Fmt.str "t1 res %s.incr %d" o i ]))

let count_lines needle s =
  String.split_on_char '\n' s
  |> List.filter (fun l ->
         String.length l >= String.length needle
         && String.sub l 0 (String.length needle) = needle)
  |> List.length

let test_events_stream_back () =
  let sock = scratch () and result = scratch () in
  let pid = fork_server ~sock ~max_conns:4 ~result_file:result () in
  let reply = round_trip sock (counter_lines "C" 3) in
  Alcotest.(check int) "three commits echoed" 3
    (count_lines "committed oid=C" reply);
  let reply = round_trip sock [ "utter garbage" ] in
  Alcotest.(check int) "structured error echoed" 1
    (count_lines "error frame=" reply);
  stop_server pid;
  let summary = In_channel.with_open_text result In_channel.input_all in
  Alcotest.(check string) "drain summary accounts for every frame"
    "frames=7 ops=3 violations=0\n" summary;
  Sys.remove result

let test_hostile_connection_is_contained () =
  let sock = scratch () and result = scratch () in
  let pid = fork_server ~sock ~max_conns:4 ~result_file:result () in
  (* A sends an unterminated line beyond the transport cap: only A dies. *)
  let a = connect sock in
  let junk = String.make 8192 'x' in
  (try
     for _ = 1 to (Transport.max_line_bytes / 8192) + 2 do
       send a junk
     done
   with Unix.Unix_error _ -> ());
  let b_reply = round_trip sock (counter_lines "D" 2) in
  Alcotest.(check int) "sibling connection still verifies" 2
    (count_lines "committed oid=D" b_reply);
  (* A is gone: its socket reaches EOF. *)
  Alcotest.(check string) "hostile connection dropped" "" (recv_all a);
  Unix.close a;
  stop_server pid;
  Sys.remove result

let test_busy_reject_beyond_max_conns () =
  let sock = scratch () and result = scratch () in
  let pid = fork_server ~sock ~max_conns:1 ~result_file:result () in
  let a = connect sock in
  (* Force the server to register A before B shows up. *)
  send a "t1 inv C.incr ()\n";
  Unix.sleepf 0.3;
  let b = connect sock in
  let b_reply = recv_all b in
  Alcotest.(check string) "over-capacity connection told busy" "busy\n"
    b_reply;
  Unix.close b;
  Unix.close a;
  stop_server pid;
  Sys.remove result

let test_sigterm_drain_cuts_a_snapshot () =
  let sock = scratch () and result = scratch () in
  let jdir = scratch () in
  let pid =
    fork_server ~journal_dir:jdir ~sock ~max_conns:4 ~result_file:result ()
  in
  ignore (round_trip sock (counter_lines "C" 4));
  stop_server pid;
  (* The drain finalized the journal: one snapshot, nothing to replay. *)
  (match Journal.recover ~dir:jdir with
  | Error m -> Alcotest.fail ("journal unreadable after drain: " ^ m)
  | Ok r ->
      check_bool "final snapshot present" true
        (r.Journal.core_snapshot <> None);
      Alcotest.(check int) "journal fully covered by the final snapshot" 0
        r.Journal.replayed;
      Alcotest.(check int) "nothing lost" 0 r.Journal.dropped_bytes);
  rm_rf jdir;
  Sys.remove result

(* The file-mode transcript of [lines]: every event of an in-process
   pump over a core configured like [fork_server]'s, one per line. *)
let file_transcript lines =
  let core =
    match Core.create ~config:small_config ~spec_for () with
    | Ok c -> c
    | Error m -> Alcotest.fail m
  in
  let pump = Transport.create_pump ~core ~tick_every:4 () in
  let b = Buffer.create 4096 in
  List.iter
    (fun l ->
      List.iter
        (fun e ->
          Buffer.add_string b (Proto.print_event e);
          Buffer.add_char b '\n')
        (Transport.pump_line pump l))
    lines;
  Buffer.contents b

(* [n] counter windows, round robin over four objects, with a malformed
   frame after every 997th window. *)
let bulk_lines n =
  List.concat
    (List.init n (fun i ->
         let o = Fmt.str "B%d" (i mod 4) in
         [ Fmt.str "t1 inv %s.incr ()" o; Fmt.str "t1 res %s.incr %d" o (i / 4) ]
         @ if i mod 997 = 996 then [ Fmt.str "bogus %d" i ] else []))

(* Run [Transport.client] on [in_file] in a forked child whose stdout is
   [out_file], as `calc serve --connect` would; fails unless the client
   returns [Ok] within a minute. *)
let run_client ~sock ~in_file ~out_file =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      let code =
        try
          ignore (Unix.alarm 60);
          let fd =
            Unix.openfile out_file
              [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
          in
          Unix.dup2 fd Unix.stdout;
          Unix.close fd;
          let r =
            In_channel.with_open_bin in_file (fun ic ->
                Transport.client ~path:sock ic)
          in
          flush stdout;
          match r with Ok () -> 0 | Error _ -> 1
        with _ -> 2
      in
      Unix._exit code
  | pid -> (
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _, Unix.WEXITED c -> Alcotest.failf "client exited with %d" c
      | _, _ -> Alcotest.fail "client was killed")

(* A bulk stream through the client: the client sends it in large
   blocks, so one read of the daemon holds many windows and most reads
   end inside a line, and the stream's last line is unterminated. Every
   window must be answered, and the socket transcript must equal the
   file-mode transcript byte for byte. *)
let test_bulk_stream_through_client () =
  let sock = scratch () and result = scratch () in
  let in_file = scratch () and out_file = scratch () in
  let windows = 20_000 in
  let lines = bulk_lines windows in
  Out_channel.with_open_bin in_file (fun oc ->
      Out_channel.output_string oc (String.concat "\n" lines));
  with_server ~sock ~max_conns:4 ~result_file:result (fun pid ->
      run_client ~sock ~in_file ~out_file;
      stop_server pid);
  let reply = In_channel.with_open_bin out_file In_channel.input_all in
  Alcotest.(check int) "every window answered" windows
    (count_lines "committed oid=B" reply);
  check_bool "socket transcript equals the file-mode transcript" true
    (String.equal (file_transcript lines) reply);
  let summary = In_channel.with_open_text result In_channel.input_all in
  Alcotest.(check string) "drain summary accounts for every frame"
    (Fmt.str "frames=%d ops=%d violations=0\n" (List.length lines) windows)
    summary;
  List.iter Sys.remove [ result; in_file; out_file ]

(* The same comparison on a raw connection whose bytes arrive in pieces:
   a line dribbled a few bytes per write, many windows in one write, and
   an unterminated last line before the half-close. *)
let test_fragmented_stream_matches_file_mode () =
  let sock = scratch () and result = scratch () in
  let lines = bulk_lines 300 in
  let bytes = String.concat "\n" lines in
  let n = String.length bytes in
  let last = String.rindex bytes '\n' + 1 in
  let reply =
    with_server ~sock ~max_conns:4 ~result_file:result (fun pid ->
        let fd = connect sock in
        let rec dribble off =
          if off < 60 then (
            send fd (String.sub bytes off 5);
            Unix.sleepf 0.005;
            dribble (off + 5))
        in
        dribble 0;
        send fd (String.sub bytes 60 (last - 60));
        Unix.sleepf 0.02;
        send fd (String.sub bytes last (n - last));
        Unix.shutdown fd Unix.SHUTDOWN_SEND;
        let reply = recv_all fd in
        Unix.close fd;
        stop_server pid;
        reply)
  in
  check_bool "socket transcript equals the file-mode transcript" true
    (String.equal (file_transcript lines) reply);
  Sys.remove result

(* The first line [fd] receives within [limit] seconds, if any. *)
let line_within fd ~limit =
  let t0 = Unix.gettimeofday () in
  let b = Buffer.create 64 and chunk = Bytes.create 256 in
  let rec go () =
    match String.index_opt (Buffer.contents b) '\n' with
    | Some i -> Some (Buffer.sub b 0 i)
    | None -> (
        let left = limit -. (Unix.gettimeofday () -. t0) in
        if left <= 0. then None
        else
          match Unix.select [ fd ] [] [] left with
          | [], _, _ -> None
          | _ -> (
              match Unix.read fd chunk 0 (Bytes.length chunk) with
              | 0 -> None
              | k ->
                  Buffer.add_subbytes b chunk 0 k;
                  go ()))
  in
  go ()

(* One connection pipelines windows and never reads its replies: once
   its backlog passes the slow-consumer cap it is closed, and a sibling
   connection still gets its verdict promptly. *)
let test_slow_consumer_is_kicked_alone () =
  let sock = scratch () and result = scratch () in
  let old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigpipe old_pipe)
  @@ fun () ->
  with_server ~sock ~max_conns:4 ~result_file:result (fun pid ->
      let sibling = connect sock in
      let slow = connect sock in
      Unix.set_nonblock slow;
      let next = ref 0 in
      let block () =
        let b = Buffer.create 4096 in
        for _ = 1 to 100 do
          Buffer.add_string b
            (Fmt.str "t1 inv S.incr ()\nt1 res S.incr %d\n" !next);
          incr next
        done;
        Buffer.contents b
      in
      (* Flood until the daemon closes the connection (the write fails),
         or the daemon stops taking its bytes for two seconds, or ten
         seconds pass. *)
      let t0 = Unix.gettimeofday () in
      let rec flood s off =
        if Unix.gettimeofday () -. t0 > 10. then `Stalled
        else if off = String.length s then flood (block ()) 0
        else
          match Unix.write_substring slow s off (String.length s - off) with
          | k -> flood s (off + k)
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
            -> (
              match Unix.select [] [ slow ] [] 2. with
              | [], [], [] -> `Stalled
              | _ -> flood s off)
          | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _)
            ->
              `Closed
      in
      let outcome = flood (block ()) 0 in
      send sibling "t1 inv D.incr ()\nt1 res D.incr 0\n";
      Alcotest.(check (option string)) "sibling gets its verdict within 5 s"
        (Some "committed oid=D ops=1") (line_within sibling ~limit:5.);
      check_bool "slow consumer closed" true (outcome = `Closed);
      Unix.close slow;
      Unix.close sibling;
      stop_server pid);
  Sys.remove result

let () =
  Alcotest.run "transport"
    [
      ( "socket",
        [
          t "events stream back per connection" test_events_stream_back;
          t "hostile connection is contained"
            test_hostile_connection_is_contained;
          t "busy reject beyond max-conns" test_busy_reject_beyond_max_conns;
          t "sigterm drain cuts a snapshot" test_sigterm_drain_cuts_a_snapshot;
          t "bulk stream through the client" test_bulk_stream_through_client;
          t "fragmented stream matches file mode"
            test_fragmented_stream_matches_file_mode;
          t "slow consumer is kicked alone" test_slow_consumer_is_kicked_alone;
        ] );
    ]
