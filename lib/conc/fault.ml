type t =
  | Crash of { thread : int; at_step : int }
  | Fail_step of { label : string; nth : int }
  | Stall of { thread : int; at_step : int; for_steps : int }
  | Delay of { thread : int; factor : int }
  | Crash_system of { at_step : int }

type plan = t list

let crash ~thread ~at_step = Crash { thread; at_step }
let fail_step ~label ~nth = Fail_step { label; nth }
let stall ~thread ~at_step ~for_steps = Stall { thread; at_step; for_steps }
let delay ~thread ~factor = Delay { thread; factor }
let crash_system ~at_step = Crash_system { at_step }

(* The threads already crashed and delayed are kept in lists: a plan has a
   handful of entries, so a table per validation would cost more than the
   membership tests it saves. *)
let validate ?(max_crash_depth = 1) plan =
  let sys_crashes = ref 0 in
  let last_sys = ref (-1) in
  let rec go seen_crash seen_delay = function
    | [] -> Ok ()
    | Crash_system { at_step } :: rest ->
        if at_step < 0 then Error "Crash_system: negative at_step"
        else if at_step <= !last_sys && !sys_crashes > 0 then
          Error "Crash_system: crash points must be strictly increasing"
        else begin
          incr sys_crashes;
          last_sys := at_step;
          if !sys_crashes > max_crash_depth then
            Error
              (Fmt.str "Crash_system: %d system crashes exceed max_crash_depth %d"
                 !sys_crashes max_crash_depth)
          else go seen_crash seen_delay rest
        end
    | Crash { thread; at_step } :: rest ->
        if thread < 0 then Error "Crash: negative thread"
        else if at_step < 0 then Error "Crash: negative at_step"
        else if List.mem thread seen_crash then
          Error (Fmt.str "two crashes of thread %d" thread)
        else go (thread :: seen_crash) seen_delay rest
    | Fail_step { label; nth } :: rest ->
        if label = "" then Error "Fail_step: empty label"
        else if nth < 1 then Error "Fail_step: nth must be >= 1"
        else go seen_crash seen_delay rest
    | Stall { thread; at_step; for_steps } :: rest ->
        if thread < 0 then Error "Stall: negative thread"
        else if at_step < 0 then Error "Stall: negative at_step"
        else if for_steps < 1 then Error "Stall: for_steps must be >= 1"
        else go seen_crash seen_delay rest
    | Delay { thread; factor } :: rest ->
        if thread < 0 then Error "Delay: negative thread"
        else if factor < 2 then Error "Delay: factor must be >= 2"
        else if List.mem thread seen_delay then
          Error (Fmt.str "two delays of thread %d" thread)
        else go seen_crash (thread :: seen_delay) rest
  in
  go [] [] plan

let matches_label ~pattern label =
  String.equal pattern label
  ||
  let pl = String.length pattern in
  String.length label > pl && label.[pl] = '@' && String.starts_with ~prefix:pattern label

let crashed_threads plan =
  List.filter_map (function Crash { thread; _ } -> Some thread | _ -> None) plan
  |> List.sort_uniq Int.compare

let system_crash_points plan =
  List.filter_map
    (function Crash_system { at_step } -> Some at_step | _ -> None)
    plan

let equal (a : t) (b : t) = a = b

let compare (a : t) (b : t) = Stdlib.compare a b

let pp ppf = function
  | Crash { thread; at_step } -> Fmt.pf ppf "crash(t%d@%d)" thread at_step
  | Fail_step { label; nth } -> Fmt.pf ppf "fail(%s#%d)" label nth
  | Stall { thread; at_step; for_steps } ->
      Fmt.pf ppf "stall(t%d@%d+%d)" thread at_step for_steps
  | Delay { thread; factor } -> Fmt.pf ppf "delay(t%d*%d)" thread factor
  | Crash_system { at_step } -> Fmt.pf ppf "crash-system(@%d)" at_step

let pp_plan ppf = function
  | [] -> Fmt.pf ppf "(no faults)"
  | plan -> Fmt.pf ppf "@[<h>%a@]" (Fmt.list ~sep:(Fmt.any " ") pp) plan
