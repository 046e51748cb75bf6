(* Tests for the specification acceptors: exchanger, stack, queue, register,
   counter, synchronous queue, and the union combinator. *)

open Cal
open Test_support

let t name f = Alcotest.test_case name `Quick f
let ex_spec = Spec_exchanger.spec ()
let swap = Spec_exchanger.swap ~oid:e_oid (tid 1) (vi 3) (tid 2) (vi 4)
let failure = Spec_exchanger.failure ~oid:e_oid (tid 3) (vi 7)

let test_exchanger_accepts () =
  check_bool "swap" true (Spec.accepts ex_spec [ swap ]);
  check_bool "failure" true (Spec.accepts ex_spec [ failure ]);
  check_bool "sequence" true (Spec.accepts ex_spec [ swap; failure; swap ]);
  check_bool "empty" true (Spec.accepts ex_spec [])

let test_exchanger_rejects () =
  (* mismatched values: t1 gets 9 but t2 offered 4 *)
  let bad =
    Ca_trace.element e_oid
      [ op 1 ~arg:(vi 3) ~ret:(ok_int 9); op 2 ~arg:(vi 4) ~ret:(ok_int 3) ]
  in
  check_bool "bad swap" false (Spec.accepts ex_spec [ bad ]);
  (* singleton success *)
  let lone = Ca_trace.singleton (op 1 ~arg:(vi 3) ~ret:(ok_int 4)) in
  check_bool "singleton success" false (Spec.accepts ex_spec [ lone ]);
  (* failure must return its own argument *)
  let bad_fail = Ca_trace.singleton (op 1 ~arg:(vi 3) ~ret:(fail_int 9)) in
  check_bool "failure wrong value" false (Spec.accepts ex_spec [ bad_fail ])

let test_exchanger_rejection_message () =
  let lone = Ca_trace.singleton (op 1 ~arg:(vi 3) ~ret:(ok_int 4)) in
  match Spec.explain_rejection ex_spec [ swap; lone ] with
  | Some msg -> check_bool "mentions element 1" true (String.length msg > 0)
  | None -> Alcotest.fail "expected rejection"

let test_exchanger_candidates () =
  let pend : Op.pending =
    { tid = tid 1; oid = e_oid; fid = Spec_exchanger.fid_exchange; arg = vi 3 }
  in
  let cands = Spec.candidates ex_spec.Spec.start ~universe:(Lazy.from_val [ vi 3; vi 4 ]) pend in
  check_bool "contains failure" true (List.exists (Value.equal (fail_int 3)) cands);
  check_bool "contains ok 4" true (List.exists (Value.equal (ok_int 4)) cands)

let stack_spec_strict = Spec_stack.spec ~oid:s_oid ()
let stack_spec_loose = Spec_stack.spec ~oid:s_oid ~allow_spurious_failure:true ()
let push ?(t = 1) v ~ok = Ca_trace.singleton (Spec_stack.push_op ~oid:s_oid (tid t) (vi v) ~ok)
let pop ?(t = 1) v = Ca_trace.singleton (Spec_stack.pop_op ~oid:s_oid (tid t) v)

let test_stack_lifo () =
  check_bool "push pop" true
    (Spec.accepts stack_spec_strict [ push 1 ~ok:true; pop (Some (vi 1)) ]);
  check_bool "lifo order" true
    (Spec.accepts stack_spec_strict
       [ push 1 ~ok:true; push 2 ~ok:true; pop (Some (vi 2)); pop (Some (vi 1)) ]);
  check_bool "fifo rejected" false
    (Spec.accepts stack_spec_strict
       [ push 1 ~ok:true; push 2 ~ok:true; pop (Some (vi 1)) ])

let test_stack_empty_answers () =
  check_bool "empty pop on empty" true (Spec.accepts stack_spec_strict [ pop None ]);
  check_bool "empty pop on non-empty (strict)" false
    (Spec.accepts stack_spec_strict [ push 1 ~ok:true; pop None ]);
  check_bool "empty pop on non-empty (loose)" true
    (Spec.accepts stack_spec_loose [ push 1 ~ok:true; pop None ])

let test_stack_spurious_failures () =
  check_bool "failed push (strict)" false (Spec.accepts stack_spec_strict [ push 1 ~ok:false ]);
  check_bool "failed push (loose)" true (Spec.accepts stack_spec_loose [ push 1 ~ok:false ]);
  (* a failed push must not change the stack *)
  check_bool "failed push is a no-op" false
    (Spec.accepts stack_spec_loose [ push 1 ~ok:false; pop (Some (vi 1)) ])

let test_stack_rejects_pairs () =
  let pair =
    Ca_trace.element s_oid
      [
        Spec_stack.push_op ~oid:s_oid (tid 1) (vi 1) ~ok:true;
        Spec_stack.pop_op ~oid:s_oid (tid 2) (Some (vi 1));
      ]
  in
  check_bool "stack elements are singletons" false
    (Spec.accepts stack_spec_strict [ pair ])

let queue_spec = Spec_queue.spec ~oid:(oid "Q") ()
let enq v = Ca_trace.singleton (Spec_queue.enq_op ~oid:(oid "Q") (tid 1) (vi v))
let deq ?(t = 2) v = Ca_trace.singleton (Spec_queue.deq_op ~oid:(oid "Q") (tid t) v)

let test_queue_fifo () =
  check_bool "fifo" true
    (Spec.accepts queue_spec [ enq 1; enq 2; deq (Some (vi 1)); deq (Some (vi 2)) ]);
  check_bool "lifo rejected" false (Spec.accepts queue_spec [ enq 1; enq 2; deq (Some (vi 2)) ]);
  check_bool "empty answer" true (Spec.accepts queue_spec [ deq None ]);
  check_bool "empty answer on non-empty" false (Spec.accepts queue_spec [ enq 1; deq None ])

let reg_spec = Spec_register.spec ~oid:(oid "R") ()
let wr v = Ca_trace.singleton (Spec_register.write_op ~oid:(oid "R") (tid 1) (vi v))
let rd ?(t = 2) v = Ca_trace.singleton (Spec_register.read_op ~oid:(oid "R") (tid t) (vi v))

let test_register () =
  check_bool "init read" true (Spec.accepts reg_spec [ rd 0 ]);
  check_bool "read after write" true (Spec.accepts reg_spec [ wr 5; rd 5 ]);
  check_bool "stale read" false (Spec.accepts reg_spec [ wr 5; rd 0 ]);
  check_bool "overwrite" true (Spec.accepts reg_spec [ wr 5; wr 6; rd 6 ])

let cnt_spec = Spec_counter.spec ~oid:(oid "C") ()
let inc ?(t = 1) n = Ca_trace.singleton (Spec_counter.incr_op ~oid:(oid "C") (tid t) n)
let get ?(t = 2) n = Ca_trace.singleton (Spec_counter.get_op ~oid:(oid "C") (tid t) n)

let test_counter () =
  check_bool "sequence" true
    (Spec.accepts cnt_spec [ inc 0; inc ~t:2 1; get ~t:1 2 ]);
  check_bool "duplicate return" false (Spec.accepts cnt_spec [ inc 0; inc ~t:2 0 ]);
  check_bool "get counts" false (Spec.accepts cnt_spec [ inc 0; get 0 ])

let sq_oid = oid "SQ"
let sq_spec = Spec_sync_queue.spec ~oid:sq_oid ()

let test_sync_queue () =
  let rv = Spec_sync_queue.rendezvous ~oid:sq_oid (tid 1) (vi 7) (tid 2) in
  check_bool "rendezvous" true (Spec.accepts sq_spec [ rv ]);
  check_bool "failed put" true
    (Spec.accepts sq_spec
       [ Ca_trace.singleton (Spec_sync_queue.put_op ~oid:sq_oid (tid 1) (vi 7) ~ok:false) ]);
  check_bool "failed take" true
    (Spec.accepts sq_spec [ Ca_trace.singleton (Spec_sync_queue.take_op ~oid:sq_oid (tid 1) None) ]);
  (* singleton successful put is not a legal element *)
  check_bool "lone successful put" false
    (Spec.accepts sq_spec
       [ Ca_trace.singleton (Spec_sync_queue.put_op ~oid:sq_oid (tid 1) (vi 7) ~ok:true) ]);
  (* a take must receive exactly the partner's value *)
  let bad =
    Ca_trace.element sq_oid
      [
        Spec_sync_queue.put_op ~oid:sq_oid (tid 1) (vi 7) ~ok:true;
        Spec_sync_queue.take_op ~oid:sq_oid (tid 2) (Some (vi 8));
      ]
  in
  check_bool "wrong transfer value" false (Spec.accepts sq_spec [ bad ])

let test_union_dispatch () =
  let u = Spec.union [ ex_spec; stack_spec_loose ] in
  check_bool "mixed trace" true
    (Spec.accepts u [ swap; push 1 ~ok:true; failure; pop (Some (vi 1)) ]);
  check_bool "stack state tracked" false
    (Spec.accepts u [ swap; pop (Some (vi 9)) ]);
  (* element of an unowned object is rejected *)
  let alien = Ca_trace.singleton (op ~oid:(oid "Z") 1 ~arg:(vi 1) ~ret:(vi 1)) in
  check_bool "unowned object" false (Spec.accepts u [ alien ])

let test_union_empty () =
  Alcotest.check_raises "empty union" (Invalid_argument "Spec.union: empty list")
    (fun () -> ignore (Spec.union []))

let test_max_element_size () =
  Alcotest.(check int) "exchanger" 2 ex_spec.Spec.max_element_size;
  Alcotest.(check int) "stack" 1 stack_spec_strict.Spec.max_element_size;
  Alcotest.(check int) "union" 2
    (Spec.union [ ex_spec; stack_spec_strict ]).Spec.max_element_size

let () =
  Alcotest.run "spec"
    [
      ( "exchanger",
        [
          t "accepts" test_exchanger_accepts;
          t "rejects" test_exchanger_rejects;
          t "rejection message" test_exchanger_rejection_message;
          t "candidates" test_exchanger_candidates;
        ] );
      ( "stack",
        [
          t "lifo" test_stack_lifo;
          t "empty answers" test_stack_empty_answers;
          t "spurious failures" test_stack_spurious_failures;
          t "rejects pair elements" test_stack_rejects_pairs;
        ] );
      ( "others",
        [
          t "queue fifo" test_queue_fifo;
          t "register" test_register;
          t "counter" test_counter;
          t "sync queue" test_sync_queue;
        ] );
      ( "union",
        [
          t "dispatch" test_union_dispatch;
          t "empty" test_union_empty;
          t "max element size" test_max_element_size;
        ] );
    ]
