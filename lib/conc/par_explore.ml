(* The schedule-tree DFS, sequential or work-stealing over OCaml 5 domains
   (DESIGN §2.11).

   The DFS keeps a single live execution per worker and descends by
   {!Runner.step} — O(1) per tree edge. Every frame of an undoable
   execution ({!Runner.undoable}) holds a {!Runner.mark}, and backtracking
   to a sibling rolls back to it in place: the total work is O(nodes)
   program steps plus the undone writes. A program that cannot be undone
   re-establishes the branch point with one prefix replay from a fresh
   setup instead, O(runs × depth) in all. Both are against O(nodes ×
   depth) for the whole-prefix-replay oracle
   ({!Explore.exhaustive_via_replay}). Prefix replay also rebuilds every
   donated chunk, on the claiming worker's own execution.

   Dynamic cooperative splitting. There is no up-front task partition: the
   whole schedule tree starts as one task, and splitting happens on demand
   while workers explore. Each worker runs the incremental DFS with an
   explicit, worker-private stack of frames (one per open node: the
   branches not yet descended plus the scheduling state of that node). A
   shared [hungry] counter says how many workers currently have nothing to
   run; whenever it is positive, a busy worker that has descended at
   least one edge of its current task donates the {e entire remaining
   branch list of its shallowest open frame} — the biggest available
   chunk — as a new task into a small mutex-guarded pool. An
   idle worker claims it, reconstructs the frame by replaying the node's
   prefix on its own private {!Runner} cursor, and continues the
   iteration exactly where the donor would have — including further
   donations, so big subtrees keep splitting as long as anyone is idle.
   The only synchronisation on the hot descend/backtrack path is one
   atomic load per node.

   Determinism. Every task owns a {e contiguous interval} of the
   canonical (sequential DFS) leaf order: a donation always takes the
   canonical tail of the donor's remaining work (the shallowest frame's
   rest comes after everything below it), so intervals stay contiguous
   and disjoint by induction. Each task is labelled with its start {e
   rank} — the branch-index path from the global root to its first
   branch; ranks compare lexicographically ([int list] structural
   compare), and sorting the per-task accumulators by rank reproduces
   the sequential delivery order exactly, whatever the domain count or
   the steal timing. For first-failure searches the workers share a
   monotonically lowering [best] start rank: a task that finds a failure
   publishes its own start rank, and a task is abandoned only when
   [best] is strictly below its start — i.e. when a whole earlier
   interval already failed, so the sequential engine would never have
   reached it. The surviving failure with the lowest rank is the first
   failure in canonical schedule order — byte-identical to the
   sequential witness.

   Schedule bounds. With [bound = (model, b)] every node records its cost
   so far and the thread that may move for free (the default continuation
   of the {!Engine.cost_model}); an edge that would push the cost past [b]
   is cut and counted in [bound_hits]. Each edge is examined exactly once,
   by the task owning its node (frames are donated whole), so the count is
   domain-count invariant and [bounded] reports whether the bound bit.

   Per-path state. Callers that classify a run by how it was reached
   (the liveness watchdog's idle counters) thread an immutable ['path]
   value down each edge with [step_path]; frames and donated chunks carry
   the value of their node, so a resumed chunk continues with exactly the
   state the donor would have used. At [domains = 1] the single worker
   runs on the calling domain and nothing is spawned: this is the
   sequential engine, not a special case of it. *)

(* A donated chunk: the tail of some node's branch list, plus everything
   needed to resume the node's iteration elsewhere — the prefix to replay,
   the node's scheduling state and path state, and the global rank of the
   first donated branch. *)
type 'path chunk = {
  k_rank : int list;            (* branch-index path to the first branch *)
  k_node_rank_rev : int list;   (* path to the node itself, newest first *)
  k_prefix : Runner.decision list;
  k_depth : int;
  k_cost : int;
  k_free : int option;
  k_frontier : Runner.decision list;  (* the node's whole frontier *)
  k_path : 'path;
  k_rest : Runner.decision list;  (* the branches this chunk owns, in order *)
  k_base : int;                 (* branch index of [hd k_rest] at the node *)
}

type 'path task = Root | Chunk of 'path chunk

(* One open node of a worker's DFS. The frame stack mirrors the native
   call stack; it exists so donation can scan for the shallowest frame
   with undescended branches. Owner-private: no locking. *)
type 'path frame = {
  fr_depth : int;
  fr_prefix_rev : Runner.decision list;
  fr_rank_rev : int list;
  fr_cost : int;  (* schedule cost of the path to this node *)
  fr_free : int option;  (* the thread whose step costs nothing, if any *)
  fr_frontier : Runner.decision list;
  fr_path : 'path;
  fr_mark : Runner.mark option;  (* the node's branch point, if undoable *)
  mutable fr_rest : Runner.decision list;
  mutable fr_next : int;  (* branch index of [hd fr_rest] *)
}

(* The task pool. [p_hungry] is the lock-free donation signal (workers
   not currently executing a task); the queue, idle count and termination
   flag live under the mutex. Termination: every worker idle with an
   empty queue means no task is running, so nothing can be donated —
   done. *)
type 'path pool = {
  p_mutex : Mutex.t;
  p_cond : Condition.t;
  mutable p_queue : 'path chunk list;
  mutable p_idle : int;
  mutable p_finished : bool;
  mutable p_root_taken : bool;
  mutable p_stolen : int;  (* donated chunks claimed from the pool *)
  p_domains : int;
  p_hungry : int Atomic.t;
  p_pending : int Atomic.t;  (* donated chunks not yet claimed *)
  p_failure : exn option Atomic.t;
}

let new_pool ~domains =
  {
    p_mutex = Mutex.create ();
    p_cond = Condition.create ();
    p_queue = [];
    p_idle = 0;
    p_finished = false;
    p_root_taken = false;
    p_stolen = 0;
    p_domains = domains;
    p_hungry = Atomic.make domains;
    p_pending = Atomic.make 0;
    p_failure = Atomic.make None;
  }

let claim pool =
  Mutex.lock pool.p_mutex;
  let rec go () =
    if pool.p_finished || Atomic.get pool.p_failure <> None then None
    else if not pool.p_root_taken then begin
      pool.p_root_taken <- true;
      Some Root
    end
    else
      match pool.p_queue with
      | c :: rest ->
          pool.p_queue <- rest;
          pool.p_stolen <- pool.p_stolen + 1;
          Atomic.decr pool.p_pending;
          Some (Chunk c)
      | [] ->
          pool.p_idle <- pool.p_idle + 1;
          if pool.p_idle = pool.p_domains then begin
            pool.p_finished <- true;
            Condition.broadcast pool.p_cond
          end
          else
            while
              pool.p_queue = [] && not pool.p_finished
              && Atomic.get pool.p_failure = None
            do
              Condition.wait pool.p_cond pool.p_mutex
            done;
          pool.p_idle <- pool.p_idle - 1;
          go ()
  in
  let r = go () in
  (match r with Some _ -> Atomic.decr pool.p_hungry | None -> ());
  Mutex.unlock pool.p_mutex;
  r

let donate pool chunk =
  Mutex.lock pool.p_mutex;
  pool.p_queue <- pool.p_queue @ [ chunk ];
  Atomic.incr pool.p_pending;
  Condition.signal pool.p_cond;
  Mutex.unlock pool.p_mutex

let fail pool e =
  if Atomic.compare_and_set pool.p_failure None (Some e) then begin
    Mutex.lock pool.p_mutex;
    pool.p_finished <- true;
    Condition.broadcast pool.p_cond;
    Mutex.unlock pool.p_mutex
  end

(* ------------------------------------------------------ domain capping -- *)

(* Worker domains beyond the hardware's core count buy no parallelism and
   pay for it in stop-the-world minor-GC synchronisation (every domain
   must reach a safepoint for every collection), so a request is capped at
   [Domain.recommended_domain_count]. Reports are domain-count-invariant
   by construction, so the cap never changes a verdict — only wall-clock;
   the cap decision is surfaced as [domains_used] vs [domains_requested]
   in the stats. [CAL_EXPLORE_OVERSUBSCRIBE=1] lifts the cap: the
   determinism test suite uses it to genuinely exercise multi-domain
   stealing even on boxes with fewer cores than the requested domain
   count. *)
let effective_domains requested =
  if requested <= 1 then 1
  else if Cal.Tuning.explore_oversubscribe () then requested
  else min requested (Domain.recommended_domain_count ())

(* ------------------------------------------------------------- explore -- *)

(* Donation grain: a frame is only donated when its subtree has at least
   this many levels left (fuel minus node depth), so workers don't ship
   chunks worth a handful of leaves — the replay to reconstruct the node
   would cost more than running them locally. *)
let donate_min = 2

let explore ~domains ?max_runs ?bound ~restart ~fuel ~init_path
    ~step_path ~init ~f ?stop_on () =
  let requested = max 1 domains in
  let domains = effective_domains requested in
  (* The run budget is shared by all workers: a delivery is admitted while
     budget remains, and the delivery that spends the last unit ends the
     search as truncated — so a sweep that uses up [max_runs] exactly is
     reported as capped, whether or not more runs remained. *)
  let budget = Option.map Atomic.make max_runs in
  (* Deterministic first-failure bound: the lowest start rank of a task
     that found a failure ([None] = none yet). Strictly-later tasks are
     whole intervals the sequential engine would never reach. *)
  let best = Atomic.make (None : int list option) in
  let rec lower rank =
    match Atomic.get best with
    | Some b when compare b rank <= 0 -> ()
    | cur -> if not (Atomic.compare_and_set best cur (Some rank)) then lower rank
  in
  let pool = new_pool ~domains in
  let limit = match bound with None -> max_int | Some (_, b) -> b in
  (* The thread that continues for free at a node whose frontier is
     [frontier], reached by a step of [last]: the last thread while it is
     still enabled; otherwise nobody under [Preemption] (every choice is
     free) and the first enabled thread under [Delay]. *)
  let free_thread ~last frontier =
    match bound with
    | None -> None
    | Some (model, _) -> (
        let last_enabled =
          match last with
          | Some t ->
              List.exists (fun (d : Runner.decision) -> d.thread = t) frontier
          | None -> false
        in
        if last_enabled then last
        else
          match model with
          | Engine.Preemption -> None
          | Engine.Delay -> Some (List.hd frontier).Runner.thread)
  in
  let results = Array.make domains [] in
  let worker w () =
    let out = ref [] in
    let run_task task =
      let rank, prefix, depth0 =
        match task with
        | Root -> ([], [], 0)
        | Chunk c -> (c.k_rank, c.k_prefix, c.k_depth)
      in
      let exec = ref (restart ()) in
      List.iter (fun d -> ignore (Runner.step !exec d)) prefix;
      let mark () =
        if Runner.undoable !exec then Some (Runner.mark !exec) else None
      in
      (* rolled back to when the task ends, so the trail is back to its
         length at the task's first node *)
      let base = mark () in
      let runs = ref 0 and truncated = ref false and max_steps = ref 0 in
      let nodes = ref 0 and replayed = ref depth0 and bound_hits = ref 0 in
      let acc = init () in
      let exception Task_done in
      let deliver frontier path =
        (match budget with
        | Some b when Atomic.fetch_and_add b (-1) <= 0 ->
            truncated := true;
            raise Engine.Stop
        | _ -> ());
        let o = Runner.outcome !exec in
        f acc o frontier path;
        incr runs;
        if o.Runner.steps > !max_steps then max_steps := o.Runner.steps;
        (match stop_on with
        | Some hit when hit acc o ->
            lower rank;
            raise Task_done
        | _ -> ());
        match budget with
        | Some b when Atomic.get b <= 0 ->
            truncated := true;
            raise Engine.Stop
        | _ -> ()
      in
      let abandoned () =
        match stop_on with
        | None -> false
        | Some _ -> (
            match Atomic.get best with
            | Some b -> compare b rank < 0
            | None -> false)
      in
      (* Per-task frame stack, shallowest first. *)
      let frames = ref [||] and ntop = ref 0 in
      (* A task donates only after it has descended at least one edge.
         Without this, a freshly claimed chunk whose owner sees a hungry
         peer donates its {e entire} branch list back to the pool before
         doing any work — and with several workers timesharing few cores
         the chunk circulates as a hot potato, each hop burning a full
         prefix replay and a result entry while one worker does all the
         real work (observed: ~90 donations per delivered run). Requiring
         one descended edge first makes every hop shrink the interval, so
         total donations are bounded by the tree's edge count. *)
      let started = ref false in
      let push fr =
        let arr = !frames in
        let cap = Array.length arr in
        if !ntop >= cap then begin
          let arr' = Array.make (max 16 (2 * cap)) fr in
          Array.blit arr 0 arr' 0 cap;
          frames := arr'
        end;
        !frames.(!ntop) <- fr;
        incr ntop
      in
      let pop () = decr ntop in
      (* Donate the shallowest frame's remaining branches — the canonical
         tail of this task's remaining work — when there are more hungry
         workers than chunks already waiting for them (without the
         pending bound, oversubscribed runs over-split: some worker is
         always between tasks, and every busy worker would shed work on
         every node). Frames whose subtree height is below the grain
         threshold are skipped: handing out a few leaves costs more than
         running them. *)
      let maybe_donate () =
        if !started && Atomic.get pool.p_hungry > Atomic.get pool.p_pending
        then begin
          let arr = !frames and n = !ntop in
          let rec find i =
            if i >= n then ()
            else
              let fr = arr.(i) in
              if fr.fr_rest <> [] && fuel - fr.fr_depth >= donate_min then begin
                donate pool
                  {
                    k_rank = List.rev (fr.fr_next :: fr.fr_rank_rev);
                    k_node_rank_rev = fr.fr_rank_rev;
                    k_prefix = List.rev fr.fr_prefix_rev;
                    k_depth = fr.fr_depth;
                    k_cost = fr.fr_cost;
                    k_free = fr.fr_free;
                    k_frontier = fr.fr_frontier;
                    k_path = fr.fr_path;
                    k_rest = fr.fr_rest;
                    k_base = fr.fr_next;
                  };
                fr.fr_rest <- []
              end
              else find (i + 1)
          in
          find 0
        end
      in
      (* Position the execution at the node of [fr]: free while descending
         along the spine; after returning from an earlier sibling's
         subtree, a rollback to the node's mark or, for a program that
         cannot be undone, one fresh prefix replay. *)
      let ensure_at fr =
        let depth = fr.fr_depth in
        if Runner.steps_done !exec <> depth then
          match fr.fr_mark with
          | Some m -> Runner.rollback !exec m
          | None ->
              let e = restart () in
              List.iter (fun d -> ignore (Runner.step e d))
                (List.rev fr.fr_prefix_rev);
              replayed := !replayed + depth;
              exec := e
      in
      let rec expand ~depth ~prefix_rev ~rank_rev ~last ~cost ~path =
        if abandoned () then raise Engine.Abandoned;
        incr nodes;
        let frontier = Runner.frontier !exec in
        if frontier = [] || depth >= fuel then deliver frontier path
        else begin
          let fr =
            {
              fr_depth = depth;
              fr_prefix_rev = prefix_rev;
              fr_rank_rev = rank_rev;
              fr_cost = cost;
              fr_free = free_thread ~last frontier;
              fr_frontier = frontier;
              fr_path = path;
              (* a one-branch node is never re-entered: no mark needed *)
              fr_mark =
                (match frontier with _ :: _ :: _ -> mark () | _ -> None);
              fr_rest = frontier;
              fr_next = 0;
            }
          in
          push fr;
          iterate fr;
          pop ()
        end
      and iterate fr =
        maybe_donate ();
        match fr.fr_rest with
        | [] -> ()
        | d :: rest ->
            fr.fr_rest <- rest;
            let idx = fr.fr_next in
            fr.fr_next <- idx + 1;
            let cost =
              match fr.fr_free with
              | Some t when t <> d.thread -> fr.fr_cost + 1
              | _ -> fr.fr_cost
            in
            if cost > limit then incr bound_hits
            else begin
              ensure_at fr;
              let path = step_path fr.fr_path fr.fr_frontier d in
              ignore (Runner.step !exec d);
              started := true;
              expand ~depth:(fr.fr_depth + 1)
                ~prefix_rev:(d :: fr.fr_prefix_rev)
                ~rank_rev:(idx :: fr.fr_rank_rev) ~last:(Some d.thread) ~cost
                ~path
            end;
            iterate fr
      in
      (try
         match task with
         | Root ->
             expand ~depth:0 ~prefix_rev:[] ~rank_rev:[] ~last:None ~cost:0
               ~path:init_path
         | Chunk c ->
             (* The donor counted this node when it expanded it; the chunk
                resumes mid-iteration. *)
             let fr =
               {
                 fr_depth = c.k_depth;
                 fr_prefix_rev = List.rev c.k_prefix;
                 fr_rank_rev = c.k_node_rank_rev;
                 fr_cost = c.k_cost;
                 fr_free = c.k_free;
                 fr_frontier = c.k_frontier;
                 fr_path = c.k_path;
                 fr_mark = base;
                 fr_rest = c.k_rest;
                 fr_next = c.k_base;
               }
             in
             if abandoned () then raise Engine.Abandoned;
             push fr;
             iterate fr;
             pop ()
       with Engine.Stop | Engine.Abandoned | Task_done -> ());
      Option.iter (Runner.rollback !exec) base;
      let stats =
        {
          Engine.empty_stats with
          Engine.runs = !runs;
          truncated = !truncated;
          max_steps = !max_steps;
          nodes = !nodes;
          replayed_steps = !replayed;
          bound_hits = !bound_hits;
          bounded = !bound_hits > 0;
        }
      in
      (rank, stats, acc)
    in
    let rec loop () =
      match claim pool with
      | None -> ()
      | Some task ->
          (match (try Some (run_task task) with e -> fail pool e; None) with
          | Some r -> out := r :: !out
          | None -> ());
          Atomic.incr pool.p_hungry;
          loop ()
    in
    loop ();
    results.(w) <- !out
  in
  let spawned =
    List.init (domains - 1) (fun k -> Domain.spawn (worker (k + 1)))
  in
  worker 0 ();
  List.iter Domain.join spawned;
  (match Atomic.get pool.p_failure with Some e -> raise e | None -> ());
  let entries =
    Array.to_list results |> List.concat
    |> List.sort (fun (r1, _, _) (r2, _, _) -> compare r1 r2)
  in
  let merged =
    List.fold_left
      (fun m (_, s, _) -> Engine.merge_stats m s)
      Engine.empty_stats entries
  in
  let stats =
    {
      merged with
      Engine.tasks_stolen = pool.p_stolen;
      domains_used = domains;
      domains_requested = requested;
    }
  in
  (stats, Array.of_list (List.map (fun (_, _, a) -> a) entries))

(* Generic deterministic parallel map over an explicit task array (used by
   the plan fan-out of the fault sweep): items are claimed with one atomic
   fetch-and-add — no lock, no O(n) scan — and results land at their
   item's index, so merging in index order reproduces the sequential
   order. A claim is counted stolen when the item would not have landed on
   this worker under a static round-robin split. *)
let map_tasks ~domains ~f items =
  let n = Array.length items in
  if n = 0 then ([||], 0)
  else begin
    let domains = max 1 (min (effective_domains domains) n) in
    let results = Array.make n None in
    if domains = 1 then begin
      Array.iteri (fun i x -> results.(i) <- Some (f i x)) items;
      (Array.map Option.get results, 0)
    end
    else begin
      let next = Atomic.make 0 in
      let stolen = Atomic.make 0 in
      let failure = Atomic.make (None : exn option) in
      let worker w () =
        let rec loop () =
          if Atomic.get failure = None then begin
            let i = Atomic.fetch_and_add next 1 in
            if i < n then begin
              if i mod domains <> w then Atomic.incr stolen;
              (try results.(i) <- Some (f i items.(i))
               with e -> ignore (Atomic.compare_and_set failure None (Some e)));
              loop ()
            end
          end
        in
        loop ()
      in
      let spawned =
        List.init (domains - 1) (fun k -> Domain.spawn (worker (k + 1)))
      in
      worker 0 ();
      List.iter Domain.join spawned;
      (match Atomic.get failure with Some e -> raise e | None -> ());
      (Array.map Option.get results, Atomic.get stolen)
    end
  end
