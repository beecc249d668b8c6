% Mean-field n-body simulation, 1200 particles.
n = 1200;
steps = 8;
rand('seed', 23);
x = rand(n, 1);
y = rand(n, 1);
z = rand(n, 1);
vx = zeros(n, 1);
vy = zeros(n, 1);
vz = zeros(n, 1);
G = 0.5;
dt = 0.005;
soft = 0.05;
mu = 0.01;
trace = zeros(1, steps);
for s = 1:steps
    cx = mean(x);
    cy = mean(y);
    cz = mean(z);
    dx = cx - x;
    dy = cy - y;
    dz = cz - z;
    r2 = dx .* dx + dy .* dy + dz .* dz + soft;
    r = sqrt(r2);
    rinv3 = 1.0 ./ (r2 .* r);
    % mean-field gravity with a short-range softening correction and
    % a weak velocity-dependent drag (dynamical friction)
    corr = 1.0 + soft ./ r2 + (soft * soft) ./ (r2 .* r2);
    ax = G * dx .* rinv3 .* corr - mu * vx .* abs(vx);
    ay = G * dy .* rinv3 .* corr - mu * vy .* abs(vy);
    az = G * dz .* rinv3 .* corr - mu * vz .* abs(vz);
    vx = vx + dt * ax;
    vy = vy + dt * ay;
    vz = vz + dt * az;
    x = x + dt * vx;
    y = y + dt * vy;
    z = z + dt * vz;
    trace(s) = x(1);                 % ML_broadcast + owner-guarded store
end
ke = sum(vx .* vx + vy .* vy + vz .* vz) / 2;
fprintf('nbody: ke=%.6e cx=%.6f trace=%.6f\n', ke, mean(x), trace(steps));
