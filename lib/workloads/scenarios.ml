open Cal
open Structures
open Conc.Prog.Infix
module Prog = Conc.Prog

type t = {
  name : string;
  description : string;
  threads : int;
  setup : Conc.Ctx.t -> Conc.Runner.program;
  spec : Cal.Spec.t;
  view : Cal.View.t;
  fuel : int;
  bound : int option;
  expect_ok : bool;
}

let tid = Ids.Tid.of_int
let no_observe threads = { Conc.Runner.threads; observe = None; on_label = None }

(* The plain scenarios' programs are undoable (Conc.Ctx.declare_undoable):
   their shared state lives in Cells, and every structure that keeps state
   the undo trail cannot see (a plain ref, a backoff window, a seeded slot
   choice) forbids rollback in its [create], so the explorer backtracks
   those runs by prefix replay instead. *)
let program ctx threads =
  Conc.Ctx.declare_undoable ctx;
  no_observe threads

(* Views are pure functions of object names, so building them from an
   instance in a throwaway context is sound. *)
let dummy_ctx () = Conc.Ctx.create ()

let exchanger_pair () =
  {
    name = "exchanger-pair";
    description = "two threads exchange 3 and 4 (Fig. 1 object)";
    threads = 2;
    setup =
      (fun ctx ->
        let ex = Exchanger.create ctx in
        program ctx
          [|
            Exchanger.exchange ex ~tid:(tid 0) (Value.int 3);
            Exchanger.exchange ex ~tid:(tid 1) (Value.int 4);
          |]);
    spec = Spec_exchanger.spec ();
    view = View.identity;
    fuel = 60;
    bound = None;
    expect_ok = true;
  }

let exchanger_trio () =
  {
    name = "exchanger-trio";
    description = "the paper's program P (Fig. 3): exchg(3) || exchg(4) || exchg(7)";
    threads = 3;
    setup =
      (fun ctx ->
        let ex = Exchanger.create ctx in
        program ctx
          [|
            Exchanger.exchange ex ~tid:(tid 0) (Value.int 3);
            Exchanger.exchange ex ~tid:(tid 1) (Value.int 4);
            Exchanger.exchange ex ~tid:(tid 2) (Value.int 7);
          |]);
    spec = Spec_exchanger.spec ();
    view = View.identity;
    fuel = 90;
    bound = Some 4;
    expect_ok = true;
  }

let exchanger_timed_pair ?(deadline = 4) () =
  {
    name = "exchanger-timed-pair";
    description =
      Fmt.str
        "two threads exchange under deadline %d on the logical clock: every \
         run ends in a swap or in Timeout CA-elements"
        deadline;
    threads = 2;
    setup =
      (fun ctx ->
        let ex = Exchanger.create ~wait:1 ctx in
        program ctx
          [|
            Exchanger.exchange_timed ex ~tid:(tid 0) ~deadline (Value.int 3);
            Exchanger.exchange_timed ex ~tid:(tid 1) ~deadline (Value.int 4);
          |]);
    spec = Spec_exchanger.spec ();
    view = View.identity;
    fuel = 60;
    bound = None;
    expect_ok = true;
  }

let exchanger_abstract_pair () =
  {
    name = "exchanger-abstract-pair";
    description = "two threads against the specification-driven exchanger";
    threads = 2;
    setup =
      (fun ctx ->
        let ex = Abstract_exchanger.create ctx in
        program ctx
          [|
            Abstract_exchanger.exchange ex ~tid:(tid 0) (Value.int 3);
            Abstract_exchanger.exchange ex ~tid:(tid 1) (Value.int 4);
          |]);
    spec = Spec_exchanger.spec ();
    view = View.identity;
    fuel = 40;
    bound = None;
    expect_ok = true;
  }

let elim_array_pair ~k =
  let mk ctx = Elim_array.create ~k ~slot_strategy:Elim_array.All_slots ctx in
  let probe = mk (dummy_ctx ()) in
  {
    name = Fmt.str "elim-array-pair-k%d" k;
    description = "two threads exchange through the elimination array";
    threads = 2;
    setup =
      (fun ctx ->
        let ar = mk ctx in
        program ctx
          [|
            Elim_array.exchange ar ~tid:(tid 0) (Value.int 3);
            Elim_array.exchange ar ~tid:(tid 1) (Value.int 4);
          |]);
    spec = Elim_array.spec probe;
    view = Elim_array.view probe;
    fuel = 70;
    bound = None;
    expect_ok = true;
  }

let make_es ?(abstract = false) ~k ctx =
  let factory = if abstract then Elim_array.abstract else Elim_array.concrete in
  Elimination_stack.create ~factory ~k ~slot_strategy:Elim_array.All_slots ctx

let elim_stack_push_pop ?(abstract = false) ~k () =
  let probe = make_es ~abstract ~k (dummy_ctx ()) in
  {
    name =
      Fmt.str "elim-stack-push-pop-k%d%s" k (if abstract then "-abstract" else "");
    description = "push(5) || pop() on the elimination stack";
    threads = 2;
    setup =
      (fun ctx ->
        let es = make_es ~abstract ~k ctx in
        program ctx
          [|
            Elimination_stack.push es ~tid:(tid 0) (Value.int 5);
            Elimination_stack.pop es ~tid:(tid 1);
          |]);
    spec = Elimination_stack.spec probe;
    view = Elimination_stack.view probe;
    fuel = 26;
    bound = None;
    expect_ok = true;
  }

let elim_stack_two_two ?(abstract = false) ~k () =
  let probe = make_es ~abstract ~k (dummy_ctx ()) in
  {
    name =
      Fmt.str "elim-stack-two-two-k%d%s" k (if abstract then "-abstract" else "");
    description = "two pushers and two poppers on the elimination stack";
    threads = 4;
    setup =
      (fun ctx ->
        let es = make_es ~abstract ~k ctx in
        program ctx
          [|
            Elimination_stack.push es ~tid:(tid 0) (Value.int 1);
            Elimination_stack.push es ~tid:(tid 1) (Value.int 2);
            Elimination_stack.pop es ~tid:(tid 2);
            Elimination_stack.pop es ~tid:(tid 3);
          |]);
    spec = Elimination_stack.spec probe;
    view = Elimination_stack.view probe;
    fuel = 30;
    bound = Some 2;
    expect_ok = true;
  }

let elim_stack_sequential_then_pop ~k =
  let probe = make_es ~k (dummy_ctx ()) in
  {
    name = Fmt.str "elim-stack-lifo-k%d" k;
    description = "t0: push(1); push(2); pop()  ||  t1: pop() — exercises LIFO order";
    threads = 2;
    setup =
      (fun ctx ->
        let es = make_es ~k ctx in
        program ctx
          [|
            (let* _ = Elimination_stack.push es ~tid:(tid 0) (Value.int 1) in
             let* _ = Elimination_stack.push es ~tid:(tid 0) (Value.int 2) in
             Elimination_stack.pop es ~tid:(tid 0));
            Elimination_stack.pop es ~tid:(tid 1);
          |]);
    spec = Elimination_stack.spec probe;
    view = Elimination_stack.view probe;
    fuel = 34;
    bound = Some 2;
    expect_ok = true;
  }

let sync_queue_pair () =
  let probe = Sync_queue.create (dummy_ctx ()) in
  let mk ctx = Sync_queue.create ~attempts:1 ctx in
  {
    name = "sync-queue-pair";
    description = "put(7) || take() on the synchronous queue";
    threads = 2;
    setup =
      (fun ctx ->
        let q = mk ctx in
        program ctx
          [| Sync_queue.put q ~tid:(tid 0) (Value.int 7); Sync_queue.take q ~tid:(tid 1) |]);
    spec = Sync_queue.spec probe;
    view = Sync_queue.view probe;
    fuel = 40;
    bound = None;
    expect_ok = true;
  }

let sync_queue_two_producers () =
  let probe = Sync_queue.create (dummy_ctx ()) in
  {
    name = "sync-queue-two-producers";
    description = "put(1) || put(2) || take() — same-role meetings must not transfer";
    threads = 3;
    setup =
      (fun ctx ->
        let q = Sync_queue.create ~attempts:1 ctx in
        program ctx
          [|
            Sync_queue.put q ~tid:(tid 0) (Value.int 1);
            Sync_queue.put q ~tid:(tid 1) (Value.int 2);
            Sync_queue.take q ~tid:(tid 2);
          |]);
    spec = Sync_queue.spec probe;
    view = Sync_queue.view probe;
    fuel = 46;
    bound = Some 3;
    expect_ok = true;
  }

let dual_queue_enq_deq () =
  let probe = Dual_queue.create (dummy_ctx ()) in
  {
    name = "dual-queue-enq-deq";
    description = "enq(7) || deq() on the dual queue: the dequeue may wait";
    threads = 2;
    setup =
      (fun ctx ->
        let q = Dual_queue.create ctx in
        program ctx
          [| Dual_queue.enq q ~tid:(tid 0) (Value.int 7); Dual_queue.deq q ~tid:(tid 1) |]);
    spec = Dual_queue.spec probe;
    view = Dual_queue.view probe;
    fuel = 30;
    bound = None;
    expect_ok = true;
  }

let dual_queue_two_consumers () =
  let probe = Dual_queue.create (dummy_ctx ()) in
  {
    name = "dual-queue-two-consumers";
    description = "deq() || deq() || enq(1): one consumer is fulfilled, one keeps waiting";
    threads = 3;
    setup =
      (fun ctx ->
        let q = Dual_queue.create ctx in
        program ctx
          [|
            Dual_queue.deq q ~tid:(tid 0);
            Dual_queue.deq q ~tid:(tid 1);
            Dual_queue.enq q ~tid:(tid 2) (Value.int 1);
          |]);
    spec = Dual_queue.spec probe;
    view = Dual_queue.view probe;
    fuel = 24;
    bound = None;
    expect_ok = true;
  }

let elim_queue_enq_deq () =
  let probe = Elimination_queue.create (dummy_ctx ()) in
  {
    name = "elim-queue-enq-deq";
    description = "enq(7) || deq() on the elimination-backed FIFO queue";
    threads = 2;
    setup =
      (fun ctx ->
        let q = Elimination_queue.create ctx in
        program ctx
          [|
            Elimination_queue.enq q ~tid:(tid 0) (Value.int 7);
            Elimination_queue.deq q ~tid:(tid 1);
          |]);
    spec = Elimination_queue.spec probe;
    view = Elimination_queue.view probe;
    fuel = 30;
    bound = None;
    expect_ok = true;
  }

let elim_queue_fifo () =
  let probe = Elimination_queue.create (dummy_ctx ()) in
  {
    name = "elim-queue-fifo";
    description =
      "t0: enq(1); enq(2) || t1: deq(); deq() — elimination must not break FIFO";
    threads = 2;
    setup =
      (fun ctx ->
        let q = Elimination_queue.create ctx in
        program ctx
          [|
            (let* _ = Elimination_queue.enq q ~tid:(tid 0) (Value.int 1) in
             Elimination_queue.enq q ~tid:(tid 0) (Value.int 2));
            (let* a = Elimination_queue.deq q ~tid:(tid 1) in
             let* b = Elimination_queue.deq q ~tid:(tid 1) in
             Prog.return (Value.pair a b));
          |]);
    spec = Elimination_queue.spec probe;
    view = Elimination_queue.view probe;
    fuel = 44;
    bound = Some 3;
    expect_ok = true;
  }

let counter_incrs ~n =
  {
    name = Fmt.str "counter-incrs-%d" n;
    description = Fmt.str "%d threads increment a fetch-and-add counter" n;
    threads = n;
    setup =
      (fun ctx ->
        let c = Counter.create ctx in
        program ctx (Array.init n (fun i -> Counter.incr c ~tid:(tid i))));
    spec = Spec_counter.spec ();
    view = View.identity;
    fuel = 20 * n;
    bound = None;
    expect_ok = true;
  }

let register_write_read () =
  {
    name = "register-write-read";
    description = "write(1); read() || write(2); read()";
    threads = 2;
    setup =
      (fun ctx ->
        let r = Register.create ctx in
        program ctx
          [|
            (let* _ = Register.write r ~tid:(tid 0) (Value.int 1) in
             Register.read r ~tid:(tid 0));
            (let* _ = Register.write r ~tid:(tid 1) (Value.int 2) in
             Register.read r ~tid:(tid 1));
          |]);
    spec = Spec_register.spec ();
    view = View.identity;
    fuel = 40;
    bound = None;
    expect_ok = true;
  }

let treiber_push_pop () =
  {
    name = "treiber-push-pop";
    description = "push(1); pop() || push(2); pop() on the central stack";
    threads = 2;
    setup =
      (fun ctx ->
        let s = Treiber_stack.create ctx in
        program ctx
          [|
            (let* _ = Treiber_stack.push s ~tid:(tid 0) (Value.int 1) in
             Treiber_stack.pop s ~tid:(tid 0));
            (let* _ = Treiber_stack.push s ~tid:(tid 1) (Value.int 2) in
             Treiber_stack.pop s ~tid:(tid 1));
          |]);
    spec = Spec_stack.spec ~allow_spurious_failure:true ();
    view = View.identity;
    fuel = 40;
    bound = None;
    expect_ok = true;
  }

let ms_queue_enq_deq () =
  {
    name = "ms-queue-enq-deq";
    description = "enq(1); deq() || enq(2); deq() on the Michael-Scott queue";
    threads = 2;
    setup =
      (fun ctx ->
        let q = Ms_queue.create ctx in
        program ctx
          [|
            (let* _ = Ms_queue.enq q ~tid:(tid 0) (Value.int 1) in
             Ms_queue.deq q ~tid:(tid 0));
            (let* _ = Ms_queue.enq q ~tid:(tid 1) (Value.int 2) in
             Ms_queue.deq q ~tid:(tid 1));
          |]);
    spec = Spec_queue.spec ();
    view = View.identity;
    fuel = 44;
    bound = Some 3;
    expect_ok = true;
  }

let faulty_elim_queue () =
  let probe = Elimination_queue.create (dummy_ctx ()) in
  {
    name = "faulty-elim-queue";
    description =
      "elimination transfer without the emptiness check: breaks FIFO";
    threads = 2;
    setup =
      (fun ctx ->
        let q = Elimination_queue.create ~unsafe_skip_empty_check:true ctx in
        program ctx
          [|
            (let* _ = Elimination_queue.enq q ~tid:(tid 0) (Value.int 1) in
             Elimination_queue.enq q ~tid:(tid 0) (Value.int 2));
            (let* a = Elimination_queue.deq q ~tid:(tid 1) in
             let* b = Elimination_queue.deq q ~tid:(tid 1) in
             Prog.return (Value.pair a b));
          |]);
    spec = Elimination_queue.spec probe;
    view = Elimination_queue.view probe;
    fuel = 44;
    bound = Some 3;
    expect_ok = false;
  }

let faulty_elim_stack ?(pushers = 1) ?(poppers = 2) () =
  {
    name = Fmt.str "faulty-elim-stack-%dp%dc" pushers poppers;
    description =
      "elimination slot never cleared: racing pops eliminate the same push";
    threads = pushers + poppers;
    setup =
      (fun ctx ->
        let s = Faulty.Elim_stack_dup_elim.create ctx in
        program ctx
          (Array.init (pushers + poppers) (fun i ->
               if i < pushers then
                 Faulty.Elim_stack_dup_elim.push s ~tid:(tid i)
                   (Value.int (i + 1))
               else Faulty.Elim_stack_dup_elim.pop s ~tid:(tid i))));
    spec = Spec_stack.spec ~allow_spurious_failure:false ();
    view = View.identity;
    fuel = 14;
    bound = Some 2;
    expect_ok = false;
  }

let faulty_counter () =
  {
    name = "faulty-counter";
    description = "non-atomic increment: racing increments lose updates";
    threads = 2;
    setup =
      (fun ctx ->
        let c = Faulty.Counter_lost_update.create ctx in
        program ctx
          [|
            Faulty.Counter_lost_update.incr c ~tid:(tid 0);
            Faulty.Counter_lost_update.incr c ~tid:(tid 1);
          |]);
    spec = Spec_counter.spec ();
    view = View.identity;
    fuel = 40;
    bound = None;
    expect_ok = false;
  }

let faulty_stack () =
  {
    name = "faulty-stack";
    description = "pop without CAS: racing pops return the same element";
    threads = 2;
    setup =
      (fun ctx ->
        let s = Faulty.Stack_lost_pop.create ctx in
        program ctx
          [|
            (let* _ = Faulty.Stack_lost_pop.push s ~tid:(tid 0) (Value.int 1) in
             Faulty.Stack_lost_pop.pop s ~tid:(tid 0));
            Faulty.Stack_lost_pop.pop s ~tid:(tid 1);
          |]);
    spec = Spec_stack.spec ~allow_spurious_failure:true ();
    view = View.identity;
    fuel = 40;
    bound = None;
    expect_ok = false;
  }

let faulty_exchanger () =
  {
    name = "faulty-exchanger";
    description = "claims success without a partner, logging a failure element";
    threads = 2;
    setup =
      (fun ctx ->
        let e = Faulty.Exchanger_selfish.create ctx in
        program ctx
          [|
            Faulty.Exchanger_selfish.exchange e ~tid:(tid 0) (Value.int 1);
            Faulty.Exchanger_selfish.exchange e ~tid:(tid 1) (Value.int 2);
          |]);
    spec = Spec_exchanger.spec ();
    view = View.identity;
    fuel = 40;
    bound = None;
    expect_ok = false;
  }

(* ----------------------------------------------- durable scenarios ---- *)

(* Durable scenarios package a {!Conc.Runner.durable} program instead of a
   plain one, and are checked black-box (a [History] obligation)
   — no view. [d_max_crash_depth] bounds crash-during-recovery nesting. *)
type durable = {
  d_name : string;
  d_description : string;
  d_threads : int;
  d_setup : Conc.Ctx.t -> Conc.Runner.durable;
  d_spec : Cal.Spec.t;
  d_fuel : int;
  d_max_crash_depth : int;
  d_expect_ok : bool;
}

(* Recovery must run solo before the post-crash workload: it re-asserts the
   durable contents as the volatile state, so letting it race with new-era
   operations would resurrect removals that are still unflushed. Thread 0
   runs recovery and raises the flag; every other thread blocks on it. *)
let after_recovery flag p =
  Prog.guard ~label:"await-recovery" (fun () -> if !flag then Some p else None)

let recovery_done flag =
  Prog.atomic ~label:"recovery-done" (fun () -> flag := true)

let stack_crash_recovery () =
  {
    d_name = "stack-crash-recovery";
    d_description =
      "push(1); pop() || push(2) on the durable Treiber stack; after any \
       crash, thread 0 recovers and both threads pop what persisted";
    d_threads = 2;
    d_setup =
      (fun ctx ->
        let domain = Conc.Pcell.domain () in
        let s = Durable_treiber_stack.create ~domain ctx in
        {
          Conc.Runner.boot =
            no_observe
              [|
                (let* _ = Durable_treiber_stack.push s ~tid:(tid 0) (Value.int 1) in
                 Durable_treiber_stack.pop s ~tid:(tid 0));
                (Durable_treiber_stack.push s ~tid:(tid 1) (Value.int 2)
                 >>= Prog.return);
              |];
          domain;
          recover =
            (fun ~epoch:_ ->
              let ready = ref false in
              no_observe
                [|
                  (let* () = Durable_treiber_stack.recover s in
                   let* () = recovery_done ready in
                   Durable_treiber_stack.pop s ~tid:(tid 0));
                  after_recovery ready (Durable_treiber_stack.pop s ~tid:(tid 1));
                |]);
        });
    d_spec =
      Spec_stack.spec ~oid:(Ids.Oid.v "DS") ~allow_spurious_failure:true ();
    d_fuel = 40;
    d_max_crash_depth = 1;
    d_expect_ok = true;
  }

let queue_crash_recovery () =
  {
    d_name = "queue-crash-recovery";
    d_description =
      "enq(1); deq() || enq(2) on the durable MS queue; after any crash, \
       thread 0 recovers and both threads dequeue what persisted";
    d_threads = 2;
    d_setup =
      (fun ctx ->
        let domain = Conc.Pcell.domain () in
        let q = Durable_ms_queue.create ~domain ctx in
        {
          Conc.Runner.boot =
            no_observe
              [|
                (let* _ = Durable_ms_queue.enq q ~tid:(tid 0) (Value.int 1) in
                 Durable_ms_queue.deq q ~tid:(tid 0));
                (Durable_ms_queue.enq q ~tid:(tid 1) (Value.int 2)
                 >>= Prog.return);
              |];
          domain;
          recover =
            (fun ~epoch:_ ->
              let ready = ref false in
              no_observe
                [|
                  (let* () = Durable_ms_queue.recover q in
                   let* () = recovery_done ready in
                   Durable_ms_queue.deq q ~tid:(tid 0));
                  after_recovery ready (Durable_ms_queue.deq q ~tid:(tid 1));
                |]);
        });
    d_spec = Spec_queue.spec ~oid:(Ids.Oid.v "DQ") ();
    d_fuel = 48;
    d_max_crash_depth = 1;
    d_expect_ok = true;
  }

let faulty_durable_stack () =
  {
    d_name = "faulty-durable-stack";
    d_description =
      "pop responds without flushing its removal: a crash resurrects the \
       popped element and the post-crash pop returns it a second time";
    d_threads = 1;
    d_setup =
      (fun ctx ->
        let domain = Conc.Pcell.domain () in
        let s = Faulty.Durable_stack_missing_flush.create ~domain ctx in
        {
          Conc.Runner.boot =
            no_observe
              [|
                (let* _ =
                   Faulty.Durable_stack_missing_flush.push s ~tid:(tid 0)
                     (Value.int 1)
                 in
                 Faulty.Durable_stack_missing_flush.pop s ~tid:(tid 0));
              |];
          domain;
          recover =
            (fun ~epoch:_ ->
              no_observe
                [|
                  (let* () = Faulty.Durable_stack_missing_flush.recover s in
                   Faulty.Durable_stack_missing_flush.pop s ~tid:(tid 0));
                |]);
        });
    d_spec =
      Spec_stack.spec ~oid:(Ids.Oid.v "DS") ~allow_spurious_failure:true ();
    d_fuel = 30;
    d_max_crash_depth = 1;
    d_expect_ok = false;
  }

let durable_all () =
  [ stack_crash_recovery (); queue_crash_recovery (); faulty_durable_stack () ]

let all () =
  [
    exchanger_pair ();
    exchanger_trio ();
    exchanger_timed_pair ();
    exchanger_abstract_pair ();
    elim_array_pair ~k:1;
    elim_array_pair ~k:2;
    elim_stack_push_pop ~k:1 ();
    elim_stack_push_pop ~abstract:true ~k:1 ();
    elim_stack_sequential_then_pop ~k:1;
    sync_queue_pair ();
    sync_queue_two_producers ();
    dual_queue_enq_deq ();
    dual_queue_two_consumers ();
    elim_queue_enq_deq ();
    elim_queue_fifo ();
    counter_incrs ~n:2;
    counter_incrs ~n:3;
    register_write_read ();
    treiber_push_pop ();
    ms_queue_enq_deq ();
    faulty_counter ();
    faulty_elim_stack ();
    faulty_stack ();
    faulty_exchanger ();
    faulty_elim_queue ();
  ]

let find name = List.find_opt (fun s -> String.equal s.name name) (all ())
let faulty () = List.filter (fun s -> not s.expect_ok) (all ())
let durable_faulty () = List.filter (fun d -> not d.d_expect_ok) (durable_all ())

(* The scenario's bound is a default strategy: CAL_EXPLORE_STRATEGY may
   replace it, as it may replace the plain DFS. *)
let config s =
  let strategy : Verify.Obligations.strategy =
    Default
      (Option.fold s.bound ~none:Conc.Explore.Dfs ~some:(fun bound ->
           Conc.Explore.Preemption_bounded { bound }))
  in
  {
    Verify.Obligations.target = Program s.setup;
    obligation = Trace { spec = s.spec; view = s.view };
    search = Exhaustive { strategy; domains = None; max_runs = None };
    fuel = s.fuel;
    faults = Verify.Obligations.no_faults;
  }

let durable_config d =
  {
    Verify.Obligations.target = Durable d.d_setup;
    obligation = History { spec = d.d_spec; checker = `Cal; cache = None };
    search = Verify.Obligations.exhaustive;
    fuel = d.d_fuel;
    faults =
      { Verify.Obligations.no_faults with max_crash_depth = Some d.d_max_crash_depth };
  }
