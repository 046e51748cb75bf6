(* Shared helpers for the test suites: terse constructors, alcotest
   testables, and common scenario runners. *)

open Cal

(* The checker Cal_checker's single search replaced, kept as the reference
   of test_cal_oracle. *)
module Cal_oracle = Cal_oracle

(* The history scan History.scan replaced, kept as the reference of the
   scan differential test. *)
module Scan_oracle = Scan_oracle

let tid = Ids.Tid.of_int
let oid = Ids.Oid.v
let fid = Ids.Fid.v
let e_oid = oid "E"
let s_oid = oid "S"

(* action constructors *)
let inv ?(oid = e_oid) ?(fid = Spec_exchanger.fid_exchange) t arg =
  Action.inv ~tid:(tid t) ~oid ~fid arg

let res ?(oid = e_oid) ?(fid = Spec_exchanger.fid_exchange) t ret =
  Action.res ~tid:(tid t) ~oid ~fid ret

let vi = Value.int
let ok_int n = Value.ok (Value.int n)
let fail_int n = Value.fail (Value.int n)

(* operation constructors *)
let op ?(oid = e_oid) ?(fid = Spec_exchanger.fid_exchange) t ~arg ~ret =
  Op.v ~tid:(tid t) ~oid ~fid ~arg ~ret

(* testables *)
let value : Value.t Alcotest.testable = Alcotest.testable Value.pp Value.equal
let history : History.t Alcotest.testable = Alcotest.testable History.pp History.equal

let trace : Ca_trace.t Alcotest.testable =
  Alcotest.testable Ca_trace.pp Ca_trace.equal

let element : Ca_trace.element Alcotest.testable =
  Alcotest.testable Ca_trace.pp_element Ca_trace.element_equal

(* checker shorthands *)
let is_cal spec h = Cal_checker.is_cal ~spec h
let is_lin spec h = Lin_checker.is_linearizable ~spec h

(* Obligation configs. [object_config] is a plain program's exhaustive,
   fault-free [Trace] obligation under [strategy] (default: the plain DFS,
   which CAL_EXPLORE_STRATEGY may replace); [trace_config s] is the
   scenario's at its own fuel — not under its bound, which
   [Workloads.Scenarios.config] adds; [black_box_config] decides CAL on the
   history instead; [sampled] is a sampled search (the PCT sampler, seed 1,
   shrinking by default); [with_faults] adds a fault space. *)
let object_config ?(strategy = Verify.Obligations.Default Conc.Explore.Dfs)
    ?domains ?max_runs ~setup ~spec ~view fuel =
  {
    Verify.Obligations.target = Program setup;
    obligation = Trace { spec; view };
    search = Exhaustive { strategy; domains; max_runs };
    fuel;
    faults = Verify.Obligations.no_faults;
  }

let trace_config ?strategy ?domains ?max_runs (s : Workloads.Scenarios.t) =
  object_config ?strategy ?domains ?max_runs ~setup:s.setup ~spec:s.spec
    ~view:s.view s.fuel

let with_faults ?delay_factors ?max_plans ?max_crash_depth ?fault_bound
    (c : Verify.Obligations.config) =
  { c with faults = { fault_bound; delay_factors; max_plans; max_crash_depth } }

let black_box_config ?strategy ?domains ?max_runs ?cache
    (s : Workloads.Scenarios.t) =
  {
    (trace_config ?strategy ?domains ?max_runs s) with
    obligation = History { spec = s.spec; checker = `Cal; cache };
  }

(* A preemption bound as a default strategy, like a scenario's [bound]. *)
let bounded bound =
  Verify.Obligations.Default (Conc.Explore.Preemption_bounded { bound })

(* The scenario's own default strategy: its bound, if any. *)
let own_strategy (s : Workloads.Scenarios.t) =
  match s.bound with
  | None -> Verify.Obligations.Default Conc.Explore.Dfs
  | Some b -> bounded b

let sampled ?(kind = Conc.Sampler.Pct { d = 3 }) ?(seed = 1L) ?(shrink = true)
    budget =
  Verify.Obligations.Sampled
    { sampling = { s_kind = kind; s_seed = seed; s_budget = budget }; shrink }

(* exhaustive verification of a scenario (under its own bound unless
   [preemption_bound] overrides it), returning whether it matched its
   expectation *)
let scenario_ok ?preemption_bound (s : Workloads.Scenarios.t) =
  let config =
    match preemption_bound with
    | None -> Workloads.Scenarios.config s
    | Some b -> trace_config ~strategy:(bounded b) s
  in
  Verify.Obligations.(ok (check config)) = s.expect_ok

let check_bool name expected actual = Alcotest.(check bool) name expected actual

(* qcheck -> alcotest adapter *)
let qtest ?(count = 200) name arb law =
  QCheck_alcotest.to_alcotest ~long:false (QCheck.Test.make ~count ~name arb law)
