(** Duration measurement on the monotonic clock that trace spans also
    read: a wall-clock step (NTP, a manual reset) cannot make an interval
    negative or inflate it.  Deadlines are instants, not durations, and
    stay on wall time (the engine's [Budget]). *)

(** [time f] runs [f ()] and returns its result with the elapsed seconds. *)
val time : (unit -> 'a) -> 'a * float

(** [repeat_median ~runs f] runs [f] [runs] times and returns the last result
    together with the median elapsed seconds (the mean of the two middle
    samples when [runs] is even); used where the paper reports "the average
    of multiple runs" on a warm cache. *)
val repeat_median : runs:int -> (unit -> 'a) -> 'a * float
