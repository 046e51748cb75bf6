(* End-to-end: every built-in scenario matches its expectation under the
   modular obligations; cross-validated with the black-box CAL checker on
   the smaller ones. Heavier scenarios run under a preemption bound. *)

open Test_support
module S = Workloads.Scenarios

let t name f = Alcotest.test_case name f

let light (s : S.t) =
  t s.name `Quick (fun () -> check_bool s.name true (scenario_ok s))

let bounded ?(bound = 2) (s : S.t) =
  t s.name `Quick (fun () ->
      check_bool s.name true (scenario_ok ~preemption_bound:bound s))

let black_box (s : S.t) =
  t (s.name ^ " [black-box]") `Quick (fun () ->
      let r = Verify.Obligations.check (black_box_config s) in
      check_bool s.name s.expect_ok (Verify.Obligations.ok r))

let () =
  Alcotest.run "scenarios"
    [
      ( "exchanger",
        [
          light (S.exchanger_pair ());
          bounded ~bound:3 (S.exchanger_trio ());
          light (S.exchanger_abstract_pair ());
          black_box (S.exchanger_pair ());
          black_box (S.exchanger_abstract_pair ());
        ] );
      ( "elimination",
        [
          light (S.elim_array_pair ~k:1);
          light (S.elim_array_pair ~k:2);
          light (S.elim_stack_push_pop ~k:1 ());
          light (S.elim_stack_push_pop ~abstract:true ~k:1 ());
          bounded ~bound:2 (S.elim_stack_sequential_then_pop ~k:1);
          bounded ~bound:1 (S.elim_stack_two_two ~k:1 ());
          black_box (S.elim_stack_push_pop ~k:1 ());
        ] );
      ( "sync queue",
        [
          light (S.sync_queue_pair ());
          bounded ~bound:3 (S.sync_queue_two_producers ());
          black_box (S.sync_queue_pair ());
        ] );
      ( "simple objects",
        [
          light (S.counter_incrs ~n:2);
          light (S.counter_incrs ~n:3);
          light (S.register_write_read ());
          light (S.treiber_push_pop ());
          light (S.ms_queue_enq_deq ());
        ] );
      ( "faulty (must be rejected)",
        [
          light (S.faulty_counter ());
          light (S.faulty_stack ());
          light (S.faulty_exchanger ());
          black_box (S.faulty_counter ());
          black_box (S.faulty_stack ());
        ] );
      ( "registry",
        [
          t "find known" `Quick (fun () ->
              check_bool "found" true (S.find "exchanger-pair" <> None));
          t "find unknown" `Quick (fun () ->
              check_bool "absent" true (S.find "no-such-scenario" = None));
          t "names unique" `Quick (fun () ->
              let names = List.map (fun (s : S.t) -> s.name) (S.all ()) in
              Alcotest.(check int) "no duplicates"
                (List.length names)
                (List.length (List.sort_uniq String.compare names)));
        ] );
    ]
