type stats = Cal_checker.stats

type verdict =
  | Linearizable of {
      linearization : Op.t list;
      completion : History.t;
      final : Spec.acceptor;
      stats : stats;
    }
  | Not_linearizable of { reason : string; stats : stats }

let check ?crashed ~spec h =
  match Cal_checker.check ?crashed ~spec:{ spec with Spec.max_element_size = 1 } h with
  | Cal_checker.Accepted { trace; completion; final; stats } ->
      Linearizable
        {
          linearization = List.concat_map Ca_trace.element_ops trace;
          completion;
          final;
          stats;
        }
  | Cal_checker.Rejected { stats; _ } ->
      Not_linearizable
        {
          reason =
            Fmt.str "no %scompletion has a sequential explanation in %s"
              (if crashed = None && History.crash_count h = 0 then ""
               else "crash-consistent ")
              spec.Spec.name;
          stats;
        }

let is_linearizable ?crashed ~spec h =
  match check ?crashed ~spec h with Linearizable _ -> true | Not_linearizable _ -> false

let pp_verdict ppf = function
  | Linearizable { linearization; stats; _ } ->
      Fmt.pf ppf "@[<v>LINEARIZABLE (states=%d)@,witness: %a@]" stats.states_explored
        (Fmt.list ~sep:(Fmt.any " · ") Op.pp)
        linearization
  | Not_linearizable { reason; stats } ->
      Fmt.pf ppf "NOT LINEARIZABLE (states=%d): %s" stats.states_explored reason
