(* Tests for the canonical history form behind the service's verdict cache:
   permutations of maximal same-kind runs collapse to one representative
   (and one cache key), anything that can change a CAL verdict — ordering
   across kinds, crash boundaries, values, thread identities — never
   collapses, and the canonical structure survives the textual history
   format. *)

open Cal
open Test_support

let t name f = Alcotest.test_case name `Quick f
let h = History.of_list
let key hist = History.canonical_key hist

let check_canon_eq name a b =
  check_bool (name ^ ": canonical_equal") true (History.canonical_equal a b);
  Alcotest.(check string) (name ^ ": canonical_key") (key a) (key b)

let check_canon_neq name a b =
  check_bool (name ^ ": canonical_equal") false (History.canonical_equal a b);
  check_bool (name ^ ": canonical_key") false (String.equal (key a) (key b))

(* Two exchanges whose invocations race and whose responses race: the four
   histories that differ only in the order within each adjacent same-kind
   run are one canonical class. *)
let test_permuted_runs_collide () =
  let quad ia ib ra rb =
    h [ inv ia (vi (3 + ia)); inv ib (vi (3 + ib));
        res ra (ok_int (7 - ra)); res rb (ok_int (7 - rb)) ]
  in
  let base = quad 0 1 0 1 in
  List.iter
    (fun (name, other) ->
      check_bool (name ^ ": raw histories differ") false
        (History.equal base other);
      check_canon_eq name base other)
    [
      ("swapped invocations", quad 1 0 0 1);
      ("swapped responses", quad 0 1 1 0);
      ("both swapped", quad 1 0 1 0);
    ];
  check_bool "canonical form is well-formed" true
    (History.is_well_formed (History.canonicalize base))

(* The canonical form never reorders across kinds: a sequential history
   and the concurrent overlap of the same two operations are different
   CAL instances and must stay distinct. *)
let test_sequential_vs_concurrent_distinct () =
  let seq =
    h [ inv 0 (vi 3); res 0 (ok_int 4); inv 1 (vi 4); res 1 (ok_int 3) ]
  in
  let conc =
    h [ inv 0 (vi 3); inv 1 (vi 4); res 0 (ok_int 4); res 1 (ok_int 3) ]
  in
  check_canon_neq "sequential vs concurrent" seq conc

(* Crash markers are hard sort boundaries: the same invocations on the two
   sides of a crash are different eras, so exchanging them across the
   crash is a different canonical class — while permuting within one era
   still collapses. *)
let test_crash_is_a_boundary () =
  let crash = Action.crash ~epoch:1 in
  let a = h [ inv 0 (vi 3); crash; inv 1 (vi 4) ] in
  let b = h [ inv 1 (vi 4); crash; inv 0 (vi 3) ] in
  check_canon_neq "actions moved across the crash" a b;
  let c = h [ inv 0 (vi 3); inv 1 (vi 4); crash; inv 2 (vi 5) ] in
  let d = h [ inv 1 (vi 4); inv 0 (vi 3); crash; inv 2 (vi 5) ] in
  check_canon_eq "permuted within the pre-crash era" c d;
  check_canon_neq "crash epochs differ"
    (h [ Action.crash ~epoch:1 ])
    (h [ Action.crash ~epoch:2 ])

(* Everything the key serializes is discriminating: values, thread ids,
   function ids, pending vs completed. *)
let test_key_discriminates () =
  check_canon_neq "argument values"
    (h [ inv 0 (vi 3) ])
    (h [ inv 0 (vi 4) ]);
  check_canon_neq "thread identities"
    (h [ inv 0 (vi 3) ])
    (h [ inv 1 (vi 3) ]);
  check_canon_neq "return values"
    (h [ inv 0 (vi 3); res 0 (ok_int 4) ])
    (h [ inv 0 (vi 3); res 0 (fail_int 4) ]);
  check_canon_neq "pending vs completed"
    (h [ inv 0 (vi 3) ])
    (h [ inv 0 (vi 3); res 0 (ok_int 4) ])

let test_idempotent () =
  let sample =
    h [ inv 0 (vi 3); inv 1 (vi 4); res 1 (ok_int 3); Action.crash ~epoch:1;
        inv 2 (vi 5); res 2 (fail_int 0) ]
  in
  let c1 = History.canonicalize sample in
  let c2 = History.canonicalize c1 in
  check_bool "canonicalize is idempotent" true (History.equal c1 c2);
  Alcotest.(check string) "key is canonicalization-invariant" (key sample)
    (key c1);
  Alcotest.(check int) "length preserved" (History.length sample)
    (History.length c1)

(* Round-tripping through the textual history format preserves the
   canonical class: parse (print h) lands in the same cache bucket as h,
   for handmade histories and for every history of an explored scenario. *)
let test_format_round_trip_preserves_canonical () =
  let round_trip name hist =
    match History_format.parse_history (History_format.print_history hist) with
    | Error e -> Alcotest.failf "%s: round-trip failed to parse: %s" name e
    | Ok hist' ->
        Alcotest.(check string)
          (name ^ ": canonical key survives the format")
          (key hist) (key hist')
  in
  round_trip "handmade"
    (h [ inv 0 (vi 3); inv 1 (vi 4); res 1 (ok_int 3) ]);
  let s = Workloads.Scenarios.exchanger_pair () in
  let count = ref 0 in
  let (_ : Conc.Explore.stats) =
    Conc.Explore.exhaustive ~setup:s.setup ~fuel:10
      ~f:(fun (o : Conc.Runner.outcome) ->
        incr count;
        round_trip (Fmt.str "run %d" !count) o.history)
      ()
  in
  check_bool "explored at least one run" true (!count > 0)

(* On real explored histories, key equality and canonical equality are the
   same relation — the cache never conflates distinct classes and never
   splits one. *)
let test_key_iff_canonical_on_explored () =
  let s = Workloads.Scenarios.elim_stack_push_pop ~k:1 () in
  let hs = ref [] in
  let (_ : Conc.Explore.stats) =
    Conc.Explore.exhaustive ~setup:s.setup ~fuel:8
      ~f:(fun (o : Conc.Runner.outcome) -> hs := o.history :: !hs)
      ()
  in
  let hs = Array.of_list !hs in
  let n = Array.length hs in
  check_bool "explored at least two runs" true (n > 1);
  for i = 0 to min n 40 - 1 do
    for j = i to min n 40 - 1 do
      check_bool
        (Fmt.str "key equality iff canonical equality (%d, %d)" i j)
        (History.canonical_equal hs.(i) hs.(j))
        (String.equal (key hs.(i)) (key hs.(j)))
    done
  done

(* ------------------------------------ bounded verdict cache (service) -- *)

(* A bounded cache must stay verdict-transparent: whatever the capacity,
   every lookup answers exactly what an uncached compute would, eviction
   only costing recomputation. Compute functions here are deterministic
   (as the cache contract requires), so transparency is observable as
   byte-equal verdicts against an unbounded reference. *)
let test_eviction_is_verdict_transparent () =
  let verdict_of k =
    if String.length k mod 3 = 0 then Error ("rejected " ^ k) else Ok ()
  in
  List.iter
    (fun capacity ->
      let bounded = Verdict_cache.create ?capacity () in
      let computes = ref 0 in
      let lookup k =
        Verdict_cache.find_or_compute bounded ~key:k (fun () ->
            incr computes;
            verdict_of k)
      in
      (* Two passes over more keys than any bound, so bounded instances
         must evict and re-compute. *)
      let keys = List.init 200 (fun i -> Fmt.str "key-%d" i) in
      List.iter
        (fun k ->
          let name = Fmt.str "cap=%s %s"
              (match capacity with None -> "none" | Some c -> string_of_int c)
              k
          in
          Alcotest.(check (result unit string)) name (verdict_of k) (lookup k))
        (keys @ keys);
      match capacity with
      | None ->
          Alcotest.(check int) "unbounded: one compute per key" 200 !computes;
          Alcotest.(check int) "unbounded: no evictions" 0
            (Verdict_cache.evictions bounded)
      | Some c ->
          (* full, not below the budget: FIFO eviction drops one entry
             per insertion past the capacity *)
          Alcotest.(check int) "bounded: holds exactly its capacity" c
            (Verdict_cache.size bounded);
          Alcotest.(check int) "bounded: one eviction per extra insertion"
            (!computes - c)
            (Verdict_cache.evictions bounded);
          let before = !computes in
          List.iter
            (fun k -> ignore (lookup k))
            (List.filteri (fun i _ -> i >= List.length keys - c) keys);
          Alcotest.(check int) "bounded: the newest keys hit" before !computes)
    [ None; Some 1; Some 2; Some 7; Some 64 ]

(* A cache holds nothing once it is dropped: a process that checks many
   specifications creates and drops many caches. Fill a few hundred
   caches, drop them, compact, and require the live heap not to have
   grown by anything like their contents (~3,000 words each). *)
let test_dropped_caches_are_collected () =
  let key i = Fmt.str "%s-%d" (String.make 64 'k') i in
  let fill () =
    let c = Verdict_cache.create () in
    for i = 0 to 199 do
      ignore (Verdict_cache.find_or_compute c ~key:(key i) (fun () -> Ok ()))
    done;
    ignore (Verdict_cache.find_or_compute c ~key:(key 0) (fun () -> Ok ()));
    Alcotest.(check int) "repeat lookup hits" 1 (Verdict_cache.hits c)
  in
  let live_words () =
    Gc.compact ();
    (Gc.stat ()).Gc.live_words
  in
  fill ();
  let before = live_words () in
  for _ = 1 to 300 do
    fill ()
  done;
  let grown = live_words () - before in
  check_bool
    (Fmt.str "live words stay bounded after 300 dropped caches (grew %d)" grown)
    true (grown < 50_000)

(* The engines keep their default unbounded behaviour unless the
   environment knob is set; the knob itself parses defensively. *)
let test_tuning_capacity_knob () =
  let with_env v f =
    let old = Sys.getenv_opt "CAL_VERDICT_CACHE_CAP" in
    Unix.putenv "CAL_VERDICT_CACHE_CAP" v;
    Fun.protect f ~finally:(fun () ->
        Unix.putenv "CAL_VERDICT_CACHE_CAP"
          (match old with Some s -> s | None -> ""))
  in
  with_env "" (fun () ->
      check_bool "empty = unbounded" true (Tuning.verdict_cache_capacity () = None));
  with_env "512" (fun () ->
      check_bool "positive integer" true
        (Tuning.verdict_cache_capacity () = Some 512));
  with_env "-3" (fun () ->
      check_bool "negative rejected" true
        (Tuning.verdict_cache_capacity () = None));
  with_env "lots" (fun () ->
      check_bool "garbage rejected" true
        (Tuning.verdict_cache_capacity () = None))

let () =
  Alcotest.run "canonical"
    [
      ( "canonical",
        [
          t "permuted same-kind runs collide" test_permuted_runs_collide;
          t "sequential vs concurrent stay distinct"
            test_sequential_vs_concurrent_distinct;
          t "crash markers are sort boundaries" test_crash_is_a_boundary;
          t "key discriminates values, threads, completion"
            test_key_discriminates;
          t "canonicalize is idempotent" test_idempotent;
          t "format round-trip preserves the canonical class"
            test_format_round_trip_preserves_canonical;
          t "key equality is canonical equality on explored histories"
            test_key_iff_canonical_on_explored;
        ] );
      ( "verdict cache bounds",
        [
          t "eviction is verdict-transparent"
            test_eviction_is_verdict_transparent;
          t "dropped unbounded caches are collected"
            test_dropped_caches_are_collected;
          t "CAL_VERDICT_CACHE_CAP knob" test_tuning_capacity_knob;
        ] );
    ]
