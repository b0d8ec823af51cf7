//! The process's resident memory, read from `/proc/self/status`.

use crate::Recorder;

/// The text of `/proc/self/status`, or `None` where that file does not
/// exist (any system without Linux's procfs).
pub fn proc_status() -> Option<String> {
    std::fs::read_to_string("/proc/self/status").ok()
}

/// The value of the field `key` (such as `"VmHWM"`) of a
/// `/proc/self/status` text, in KiB.
pub fn status_kib(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?.trim();
        value.strip_suffix("kB")?.trim().parse().ok()
    })
}

/// Record the process's resident memory into `rec` as three gauges,
/// `rss.<at>.vm_hwm_kib` (peak resident set so far),
/// `rss.<at>.rss_anon_kib` (anonymous pages) and `rss.<at>.rss_file_kib`
/// (file-backed pages, such as a mapped store's), in KiB. Where
/// `/proc/self/status` does not exist, and when `rec` is disabled,
/// nothing is recorded (and nothing is read).
pub fn record_rss(rec: &Recorder, at: &str) {
    if !rec.enabled() {
        return;
    }
    let Some(status) = proc_status() else {
        return;
    };
    for (key, name) in [
        ("VmHWM", "vm_hwm_kib"),
        ("RssAnon", "rss_anon_kib"),
        ("RssFile", "rss_file_kib"),
    ] {
        if let Some(kib) = status_kib(&status, key) {
            rec.gauge(&format!("rss.{at}.{name}")).set(kib);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_parse_in_kib() {
        let status = "Name:\trdf\nVmHWM:\t  105984 kB\nVmRSS:\t   70000 kB\n";
        assert_eq!(status_kib(status, "VmHWM"), Some(105_984));
        assert_eq!(status_kib(status, "VmRSS"), Some(70_000));
        assert_eq!(status_kib(status, "VmRS"), None);
        assert_eq!(status_kib(status, "Name"), None);
    }
}
