let used_export n = n + 1
let dead_export n = n - 1
let kept_export n = n * 2
let sibling_export n = n + 2
